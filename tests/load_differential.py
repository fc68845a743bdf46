"""Differential check of the split-file loader: corrupted files, two loaders.

Writes seeded split files, most of them corrupted, and loads each one with
`selfreid.data.load_dataset` at several block sizes, with the same function
of another copy of the package (say, the parent commit's `src`), and once
with `oracles.load_dataset_oracle`, the whole-file reference. Outcomes are
compared whole: the bytes, dtype and shape of every array, or the message
of the `SelfReidError`. It prints the counts and the first few
differences, and exits with status 1 if there is one.

Pytest does not collect this file. Run it from the repository root, with
a checkout of the other package under, say, /tmp/parent:

    git archive <commit> | tar -x -C /tmp/parent
    PYTHONPATH=src python tests/load_differential.py --seeds 0 1 --files 7500 \\
        --other-src /tmp/parent/src

Without --other-src it compares against the oracle alone.
"""

import argparse
import importlib
import importlib.util
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from selfreid import data
from selfreid.errors import SelfReidError

from oracles import load_dataset_oracle

BLOCK_BYTES = (1, 3, 7, 1000, 4096, 256 * 1024)

# Byte strings spliced into a file: line ends, headers, bad and out-of-range
# numbers, non-finite values, characters of 2 and 3 bytes, bytes that are
# not UTF-8 and Unicode whitespace.
SPLICES = [b"\n", b"\r", b"\r\n", b" ", b"\t", b"#", b"?", b"0", b"-", b"1e", b"abc", b"1_0",
           b"nan", b"-inf", b"99999999999999999999", b"# format x v1", b"# dim 3",
           b"# count 2", b"# cameras 5", b"# cameras x", "\u00e9".encode(), "\u20ac".encode(),
           b"\xd0", b"\xff", b"\xe2\x82", b"\x0b", b"\x00", "\u2028".encode(), "\x85".encode()]
# Ids that int() reads or rejects, and whitespace between fields.
ID_TOKENS = ["+7", "007", "-0", "0" * 70 + "7", "12.0", "1e1", "1_0", "\u0663", "1\u01fe", "?",
             "-99999999999999999999", "one"]
FIELD_SPACES = ["\t", "  ", "\x0b", "\x1c", "\u00a0", "\u2028", "\u3000", "\x85"]
FLOAT_TOKENS = ["abc", "1_0", "1e", "--1", "nan", "inf", "0x1", "\u0663"]


def load_package(src: Path, name: str = "other_selfreid"):
    """The `selfreid` package under `src`, imported as `name`."""
    root = src / "selfreid"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.data"), importlib.import_module(f"{name}.errors")


def outcome(load, path, errors):
    """The message of the error `load(path)` raises, or its arrays' bytes."""
    try:
        loaded = load(path)
    except errors as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in
            (loaded.sample_ids, loaded.identities, loaded.cameras, loaded.features)]


def split_text(rng) -> list:
    """The lines of a saved split of 1-300 records of 1-4 features."""
    n = int(rng.choice([rng.integers(1, 6), rng.integers(6, 60), rng.integers(60, 300)]))
    d = int(rng.integers(1, 5))
    ids = rng.choice(10 * n, size=n, replace=False) - int(rng.integers(0, 2)) * 5 * n
    if rng.random() < 0.2:
        ids[rng.integers(n)] = rng.choice([-2**63, 2**63 - 1])
    identities = rng.integers(-1, 4, size=n)
    cameras = np.unique(rng.integers(0, 3, size=n), return_inverse=True)[1]
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-5, 5, size=(n, d))
    lines = [f"# format {data.FORMAT_NAME} v{data.FORMAT_VERSION}", f"# dim {d}",
             f"# count {n}", f"# cameras {cameras.max() + 1}"][:int(rng.integers(0, 5))]
    for i in range(n):
        identity = "?" if identities[i] < 0 else str(identities[i])
        lines.append(f"{ids[i]} {identity} {cameras[i]} " + " ".join(map(repr, features[i].tolist())))
    return lines


def corrupt(rng, lines: list) -> bytes:
    """The split's bytes after 0-3 record faults, field edits and byte edits."""
    records = [i for i, line in enumerate(lines) if not line.startswith("#")]
    faults = min(int(rng.integers(0, 4)), len(records))
    for at in rng.choice(records, size=faults, replace=False):  # a fault at each record
        fields = lines[at].split(" ")
        kind = rng.integers(7)
        if kind == 0:
            fields = fields[:3]
        elif kind == 1:
            fields[rng.integers(3)] = str(rng.choice(ID_TOKENS))
        elif kind == 2:
            fields[3 + rng.integers(len(fields) - 3)] = str(rng.choice(FLOAT_TOKENS))
        elif kind == 3:
            fields.append("0.5")
        elif kind == 4:
            fields[0] = lines[rng.choice(records)].split(" ")[0]
        elif kind == 5:
            fields = ["# format", data.FORMAT_NAME, f"v{data.FORMAT_VERSION + 1}"]
        else:
            space = str(rng.choice(FIELD_SPACES))
            cut = int(rng.integers(1, 4))
            fields = [" ".join(fields[:cut]) + space + " ".join(fields[cut:])]
        lines[at] = " ".join(fields)
    newline = str(rng.choice(["\n", "\n", "\r\n", "\r"]))
    raw = bytearray((newline.join(lines) + newline * int(rng.integers(0, 2))).encode())
    for _ in range(int(rng.integers(0, 4)) if rng.random() < 0.5 else 0):
        at = int(rng.integers(0, len(raw) + 1))
        edit = rng.integers(4)
        if edit == 0:
            raw[at:at] = SPLICES[rng.integers(len(SPLICES))]
        elif edit == 1:
            raw[at:at + int(rng.integers(1, 4))] = SPLICES[rng.integers(len(SPLICES))]
        elif edit == 2:
            del raw[at:at + int(rng.integers(1, 4))]
        else:
            del raw[at:]
    return bytes(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--files", type=int, default=100, help="files per seed")
    parser.add_argument("--other-src", type=Path, help="the `src` of the package to compare")
    args = parser.parse_args(argv)
    others = load_package(args.other_src) if args.other_src else None
    errors = (SelfReidError, others[1].SelfReidError) if others else SelfReidError
    kinds, differences, loads = Counter(), [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.txt"
        for seed in args.seeds:
            rng = np.random.default_rng([seed, 0x10AD])
            for index in range(args.files):
                path.write_bytes(corrupt(rng, split_text(rng)))
                expected = outcome(load_dataset_oracle, path, errors)
                reason = expected[len(str(path)):].lstrip("0123456789: ") \
                    if isinstance(expected, str) else "loaded"
                kinds[re.sub(r"'.*'|\S*\d\S*", "_", reason)] += 1
                for block_bytes in BLOCK_BYTES:
                    loaders = [("oracle", expected)]
                    data._BLOCK_BYTES = block_bytes
                    got = outcome(data.load_dataset, path, errors)
                    if others:
                        others[0]._BLOCK_BYTES = block_bytes
                        loaders.append(("other", outcome(others[0].load_dataset, path, errors)))
                    loads += 1
                    for name, reference in loaders:
                        if got != reference:
                            differences.append((seed, index, block_bytes, name, got, reference))
    files = len(args.seeds) * args.files
    print(f"{files} files, {loads} loads at block sizes {BLOCK_BYTES}, compared with the "
          f"oracle{' and ' + str(args.other_src) if others else ''}")
    for kind, count in kinds.most_common():
        print(f"  {count:6d}  {kind}")
    print(f"{len(differences)} differences")
    for difference in differences[:5]:
        print("  seed {} file {} block {} vs {}: {!r} != {!r}".format(*difference))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
