"""Seed-sweep quality differential: two trainers on the same seeded runs.

Trains this package and another copy of it (say, the parent commit's
`src`, given with --other-src), or this package against itself with
`--set key=value` config overrides applied to the other side, on the
benchmark's workloads (`WORKLOADS` in bench/run.py: recipe-640 and
cluster-1920) and on scaled-1920: cluster-1920's 60 identities over the
default 20 epochs of 150 iterations, 2.5 passes over the rows an epoch
as 50 iterations give at 640. Each run draws its synthetic splits from
one split seed of --seeds, the `SyntheticSpec` seed, and trains at one
training seed of --train-seeds (default 0), the `TrainConfig` seed:
every pair of the two is run.

Its header line gives each side's package size in lines, as
`wc -l <src>/selfreid/*.py` counts them. Then it prints one row per run:
the final mAP and rank-1, every epoch's cluster count, the pairwise
precision and recall of the last epoch's pseudo labels
(bench/quality.py), and whether the two sides' metrics.csv are
byte-identical. A summary gives the mean, min and max of each paired
difference, other side minus this one. The tool reports and gates nothing:
it exits with status 0. A --set override that the other side's config
refuses is a usage error (status 2), found before anything trains.

Pytest does not collect this file. Run it from the repository root, with
a checkout of the other package under, say, /tmp/parent:

    git archive <commit> | tar -x -C /tmp/parent
    PYTHONPATH=src python tests/quality_differential.py --seeds 0-4 \\
        --other-src /tmp/parent/src
    PYTHONPATH=src python tests/quality_differential.py --seeds 0-4 --set restyle_prob=0
    PYTHONPATH=src python tests/quality_differential.py --seeds 0 --train-seeds 0-2 \\
        --other-src /tmp/parent/src
"""

import argparse
import importlib
import statistics
import sys
import tempfile
from pathlib import Path

import selfreid

from load_differential import load_package

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import quality  # noqa: E402
from run import WORKLOADS  # noqa: E402

# name -> (SyntheticSpec fields, TrainConfig keys)
SPECS = {**{name: (workload.spec, workload.config) for name, workload in WORKLOADS.items()},
         "scaled-1920": ({"n_identities": 60}, {"iterations": 150})}
# The per-run values whose paired differences the summary gives.
COMPARED = ("mAP", "rank1", "final_clusters", "precision", "recall")


def seed_range(text: str) -> range:
    """`A-B` (both included) or `A`."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def override(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key.strip(), value.strip()


def train_run(package, spec: dict, config: dict, seed: int) -> dict:
    """The quality of one `package.train` call on the splits of split seed `seed`."""
    trainer = importlib.import_module(f"{package.__name__}.trainer")
    reporting = importlib.import_module(f"{package.__name__}.reporting")
    splits = package.generate_synthetic(package.SyntheticSpec(**{**spec, "seed": seed}))
    assignments = []
    generate = trainer.generate_pseudo_labels

    def recorded(*args, **kwargs):
        assignments.append(generate(*args, **kwargs))
        return assignments[-1]

    trainer.generate_pseudo_labels = recorded
    try:
        _, reports = package.train(reporting.config_from_dict(config), *splits)
    finally:
        trainer.generate_pseudo_labels = generate
    # oracle labels (labels_mode = oracle) are not re-ranked and not scored
    precision, recall = (quality.pairwise_precision_recall(assignments[-1].labels,
                                                           splits[0].identities)
                         if assignments else (float("nan"), float("nan")))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "metrics.csv"
        reporting.write_metrics_csv(path, reports)
        csv = path.read_bytes()
    clusters = [report.cluster_count for report in reports]
    return {"mAP": reports[-1].evaluation.mean_ap, "rank1": reports[-1].evaluation.rank1,
            "clusters": clusters, "final_clusters": clusters[-1], "precision": precision,
            "recall": recall, "csv": csv}


def package_lines(package) -> int:
    """The newlines in the package's modules, as `wc -l selfreid/*.py` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in Path(package.__file__).parent.glob("*.py"))


def paired(key: str, this: dict, other: dict) -> str:
    if isinstance(this[key], float):
        return f"{key} {this[key]:.4f} -> {other[key]:.4f}"
    return f"{key} {this[key]} -> {other[key]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-4"),
                        help="split seeds, A-B (inclusive) or A")
    parser.add_argument("--train-seeds", type=seed_range, default=seed_range("0"),
                        help="training seeds (TrainConfig.seed), A-B (inclusive) or A")
    parser.add_argument("--other-src", type=Path, help="the `src` of the package to compare")
    parser.add_argument("--set", dest="overrides", type=override, action="append", default=[],
                        metavar="KEY=VALUE", help="a config override for the other side")
    args = parser.parse_args(argv)
    if args.other_src:
        load_package(args.other_src)
    other = sys.modules["other_selfreid"] if args.other_src else selfreid
    overrides = dict(args.overrides)
    other_reporting = importlib.import_module(f"{other.__name__}.reporting")
    for _, config in SPECS.values():  # every override is checked before the first run
        try:
            other_reporting.config_from_dict({**config, **overrides}).validate()
        except other.SelfReidError as exc:
            parser.error(f"--set: {exc}")
    side = (f"{args.other_src or 'this src'} ({package_lines(other)} lines)"
            + "".join(f", {k}={v}" for k, v in overrides.items()))
    seeds, train_seeds = args.seeds, args.train_seeds
    print(f"this src ({package_lines(selfreid)} lines) -> {side}; varied: the split seed "
          f"(SyntheticSpec.seed) over {seeds.start}-{seeds.stop - 1} and the training seed "
          f"(TrainConfig.seed) over {train_seeds.start}-{train_seeds.stop - 1}")
    pairs = []
    for name, (spec, config) in SPECS.items():
        for seed in seeds:
            for train_seed in train_seeds:
                trained = {**config, "seed": train_seed}
                this = train_run(selfreid, spec, trained, seed)
                that = train_run(other, spec, {**trained, **overrides}, seed)
                pairs.append((this, that))
                same = "identical" if this["csv"] == that["csv"] else "different"
                print(f"{name} split seed {seed} training seed {train_seed}: " + ", ".join(
                    paired(key, this, that) for key in ("mAP", "rank1", "clusters",
                                                        "precision", "recall"))
                      + f", metrics.csv {same}")
    identical = sum(this["csv"] == that["csv"] for this, that in pairs)
    print(f"runs: {len(pairs)}, with byte-identical metrics.csv: {identical}")
    print("difference (other - this): mean, min, max")
    for key in COMPARED:
        diffs = [that[key] - this[key] for this, that in pairs]
        print(f"  {key:<15}{statistics.mean(diffs):+.6f} {min(diffs):+.6f} {max(diffs):+.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
