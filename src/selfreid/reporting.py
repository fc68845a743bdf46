"""Run configuration files, manifests, and the metrics CSV.

Config files and manifests share one key=value format ('#' comments,
blank lines ignored). A manifest is just a config dict extended with
the run's file paths, so re-running from a manifest reproduces the
metrics CSV byte for byte: floats are serialized with repr, which
round-trips float64 exactly.

The flat config keys and their types are read off `TrainConfig.leaves()`
(see settings); nothing here lists them again. Nor does anything here
check a value's range: TrainConfig.validate does, from each field's
declared allowed values.
"""

import functools

from .data import text_blocks
from .errors import SelfReidError
from .trainer import EpochReport, TrainConfig

METRICS_COLUMNS = ("epoch", "n_clusters", "n_outliers", "L_agnostic", "L_cross",
                   "L_h_ins", "L_s_ins", "L_total", "mean_KL", "mAP",
                   "rank1", "rank5", "rank10")

# Keys of removed settings, which older manifests and config files hold ->
# the value that gives the kept behaviour (any other is an error).
RETIRED_KEYS = {"hard_negatives": "all", "consistency_variant": "kl_clean",
                "restyle_scale": "1.0", "hidden_dim": "128"}


def config_values(values: dict, source: str = "") -> dict:
    """Check the keys of `values` and convert each value to its field type.

    Values go through their text form, so "2.0" (or 2.0) for an int key is
    rejected rather than truncated. RETIRED_KEYS are dropped. Errors name
    `source`, the file the values were read from, when given.
    """
    where = f"{source}: " if source else ""
    for key, kept in RETIRED_KEYS.items():
        if key in values and str(values[key]) != kept:
            raise SelfReidError(f"{where}config key {key} = {values[key]}: that variant "
                                f"was removed; only {key} = {kept} remains")
    values = {key: value for key, value in values.items() if key not in RETIRED_KEYS}
    types = {key: f.type for key, _, f in TrainConfig.leaves()}
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise SelfReidError(f"{where}unknown config keys: {unknown}")
    typed = {}
    for key, value in values.items():
        try:
            typed[key] = types[key](str(value))
        except ValueError:
            raise SelfReidError(f"{where}config key {key}: expected {types[key].__name__}, "
                                f"got {value!r}") from None
    return typed


def config_from_dict(values: dict) -> TrainConfig:
    """The TrainConfig defaults overridden by `values`, unchecked (check_run checks it)."""
    typed = config_values(values)
    cfg = TrainConfig()
    for key, path, _ in TrainConfig.leaves():
        if key in typed:
            setattr(functools.reduce(getattr, path[:-1], cfg), path[-1], typed[key])
    return cfg


def _format_value(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_keyvalue(values: dict) -> str:
    """One `key = value` line per item, floats in repr."""
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in values.items())


def write_keyvalue(path, values: dict, header: str = "") -> None:
    with open(path, "w") as fh:
        fh.write((f"# {header}\n" if header else "") + format_keyvalue(values))


def read_keyvalue(path) -> dict:
    """The key = value pairs of a file; a key given twice is an error."""
    values, first_lines = {}, {}
    # every block is decoded before a line is read: a UTF-8 fault comes first
    lines = [(lineno, line) for first, block in text_blocks(path)
             for lineno, line in enumerate(block, start=first)]
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SelfReidError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in first_lines:
            raise SelfReidError(f"{path}:{lineno}: key {key} repeated "
                                f"(first on line {first_lines[key]})")
        values[key], first_lines[key] = raw.strip(), lineno
    return values


def _retrieval_cells(ev) -> list[str]:
    """The mAP, rank1, rank5 and rank10 cells of an evaluation."""
    return [repr(float(v)) for v in (ev.mean_ap, ev.rank1, ev.rank5, ev.rank10)]


def _metrics_row(report: EpochReport) -> str:
    cells = [str(report.epoch), str(report.cluster_count),
             str(report.outlier_count)]
    cells += [repr(float(v)) for v in (report.mean_agnostic, report.mean_cross,
                                       report.mean_hard, report.mean_soft,
                                       report.mean_total, report.mean_kl)]
    ev = report.evaluation
    cells += _retrieval_cells(ev) if ev is not None else [""] * 4
    return ",".join(cells)


def write_metrics_csv(path, reports) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for report in reports:
            fh.write(_metrics_row(report) + "\n")


def require_metrics_csv(path) -> bool:
    """True if `path` is missing or empty, False if it starts with the header; else an error."""
    header = (",".join(METRICS_COLUMNS) + "\n").encode()
    try:
        with open(path, "rb") as fh:
            first = fh.readline(len(header) + 1)
    except FileNotFoundError:
        first = b""
    if first not in (b"", header):
        raise SelfReidError(f"{path} is not a metrics CSV (its first line is not the "
                            f"metrics.csv header): give a run's metrics.csv or a new path")
    return not first


def append_eval_row(path, evaluation) -> None:
    """Append an evaluation-only row (training columns blank) to a metrics CSV."""
    new = require_metrics_csv(path)
    with open(path, "a") as fh:
        if new:
            fh.write(",".join(METRICS_COLUMNS) + "\n")
        cells = [""] * METRICS_COLUMNS.index("mAP") + _retrieval_cells(evaluation)
        fh.write(",".join(cells) + "\n")
