"""Command-line surface.

Subcommands: generate (synthetic dataset files), train (checkpoints +
metrics CSV + manifest), eval (retrieval metrics for a checkpoint),
ablate (loss-term grid in both memory modes) and sweep-eps (cluster
counts across DBSCAN thresholds on a fixed bank).

A settings flag takes its type, help and default off its field
(`Settings.leaves()`). generate has one per GENERATE_FLAGS entry, which
names the SyntheticSpec field it sets, sweep-eps one per ClusterConfig
key but eps. train and ablate have one --<key> per TrainConfig key ('_'
written '-'), absent as None, except that ablate's grid sets
memory_mode, lambda_hard and lambda_soft itself. A run's
config is the TrainConfig defaults, overridden in turn by
--from-manifest, --config and the flags. train and ablate check their
inputs with trainer.check_run, the one home of a run's up-front rules,
before they write or train.

sweep-eps re-ranks once, keeping the pairs within the grid's largest
eps. Its --dump file is text: a header line
`# jaccard pairs NxN upper triangle max_distance=M: row column distance`,
one line `row column distance` per stored pair, that is per pair
row < column within M (by row, then column, distances as Python float
reprs; the lower triangle mirrors it and the diagonal is zero, so
neither is written), then for each eps a line `# assignment eps=E` and
a line of the N labels.
"""

import argparse
import os
import sys
import warnings

from . import reporting
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoder import load_checkpoint
from .errors import SelfReidError
from .evaluation import require_evaluable
from .rerank import ClusterConfig, dbscan, jaccard_distance_matrix
from .trainer import (
    MEMORY_MODES,
    TrainConfig,
    check_run,
    evaluate_encoder,
    extract_bank,
    init_state,
    require_input_width,
    require_paired_splits,
    train,
)

EPS_GRID = (0.45, 0.5, 0.55, 0.6)

# variant -> loss weights that differ from the defaults
ABLATION_VARIANTS = (
    ("baseline", {"lambda_hard": 0.0, "lambda_soft": 0.0}),
    ("+hard", {"lambda_soft": 0.0}),
    ("+soft", {"lambda_hard": 0.0}),
    ("+hard+soft", {}),
)


# Manifest keys that are not config keys: the run's dataset files.
MANIFEST_PATHS = ("data", "query", "gallery")

# generate's flags, in --help order -> the SyntheticSpec field each sets
GENERATE_FLAGS = {"ids": "n_identities", "cameras": "n_cameras",
                  "samples-per-cell": "samples_per_cell", "dim": "dim",
                  "dispersion": "dispersion", "sigma-id": "sigma_identity",
                  "sigma-cam": "sigma_camera", "seed": "seed"}


def _add_setting_flag(parser: argparse.ArgumentParser, name: str, f, **kwargs) -> None:
    """--<name> ('_' written '-') for the settings field `f`."""
    parser.add_argument(f"--{name.replace('_', '-')}", type=f.type,
                        help=f"{f.metadata['help']} (default: {f.default})", **kwargs)


def _given_flags(args) -> dict:
    """Config values given on the command line; absent flags are None."""
    return {key: getattr(args, key) for key, _, _ in TrainConfig.leaves()
            if getattr(args, key, None) is not None}


def _resolve_config(args, manifest: dict) -> TrainConfig:
    values = {}
    if manifest:
        values.update(reporting.config_values(
            {k: v for k, v in manifest.items() if k not in MANIFEST_PATHS},
            args.from_manifest))
    if args.config:
        values.update(reporting.config_values(reporting.read_keyvalue(args.config),
                                              args.config))
    values.update(_given_flags(args))
    return reporting.config_from_dict(values)


def cmd_generate(args) -> int:
    spec = SyntheticSpec(**{field: getattr(args, flag.replace("-", "_"))
                            for flag, field in GENERATE_FLAGS.items()})
    train_split, query, gallery = generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, split in (("train", train_split), ("query", query),
                        ("gallery", gallery)):
        save_dataset(split, os.path.join(args.out_dir, f"{name}.txt"))
    print(f"wrote {len(train_split)} train / {len(query)} query / "
          f"{len(gallery)} gallery records to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    manifest = reporting.read_keyvalue(args.from_manifest) if args.from_manifest else {}
    config = _resolve_config(args, manifest)
    paths = {key: getattr(args, key) or manifest.get(key, "") for key in MANIFEST_PATHS}
    data_path, query_path, gallery_path = paths.values()
    if not data_path:
        raise FileNotFoundError("no training data given (--data or manifest)")
    require_paired_splits(query_path or None, gallery_path or None, query_path, gallery_path)

    dataset, query, gallery = (load_dataset(path) if path else None for path in paths.values())
    check_run(config, dataset, query, gallery, *paths.values())

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    reporting.write_keyvalue(os.path.join(out_dir, "manifest.txt"),
                             {**config.values(),
                              **{key: path for key, path in paths.items() if path}},
                             header="training run manifest")

    _, reports = train(config, dataset, query, gallery, checkpoint_dir=out_dir)
    reporting.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), reports)

    final = reports[-1]
    print(f"finished {config.epochs} epochs: {final.cluster_count} clusters, "
          f"{final.outlier_count} outliers, mean total loss "
          f"{final.mean_total:.4f}, mean KL {final.mean_kl:.6f}")
    if final.evaluation is not None:
        ev = final.evaluation
        print(f"momentum-encoder retrieval: mAP {ev.mean_ap:.4f} "
              f"R1 {ev.rank1:.4f} R5 {ev.rank5:.4f} R10 {ev.rank10:.4f}")
    print(f"cluster counts {[r.cluster_count for r in reports]}")
    return 0


def cmd_eval(args) -> int:
    if args.append_csv:  # fail before evaluating
        reporting.require_metrics_csv(args.append_csv)
    pair, _ = load_checkpoint(args.checkpoint)
    query, gallery = load_dataset(args.query), load_dataset(args.gallery)
    require_input_width(f"checkpoint {args.checkpoint}", pair.online.w1.shape[0],
                        (args.query, query), (args.gallery, gallery))
    require_evaluable(query, gallery, args.query, args.gallery)
    report = evaluate_encoder(pair, query, gallery)
    values = {"mAP": report.mean_ap, "rank1": report.rank1, "rank5": report.rank5,
              "rank10": report.rank10, "excluded_queries": report.excluded_queries}
    print(reporting.format_keyvalue(values), end="")
    if args.out:
        reporting.write_keyvalue(args.out, values)
    if args.append_csv:
        reporting.append_eval_row(args.append_csv, report)
    return 0


def cmd_ablate(args) -> int:
    given = _given_flags(args)
    grid_keys = {"memory_mode"}.union(*(weights for _, weights in ABLATION_VARIANTS))
    if clash := sorted(grid_keys & given.keys()):
        raise SelfReidError(f"ablate's grid sets {', '.join(clash)} itself; "
                            f"drop {', '.join('--' + key.replace('_', '-') for key in clash)}")
    names = (args.data, args.query, args.gallery)
    dataset, query, gallery = (load_dataset(path) for path in names)
    check_run(reporting.config_from_dict(given), dataset, query, gallery, *names)
    rows = ["memory_mode,variant,mAP,rank1,final_clusters,skipped_iterations"]
    for mode in MEMORY_MODES:
        for name, weights in ABLATION_VARIANTS:
            config = reporting.config_from_dict({**given, "memory_mode": mode, **weights})
            _, reports = train(config, dataset, query, gallery)
            final, ev = reports[-1], reports[-1].evaluation
            skipped = sum(r.skipped_iterations for r in reports)
            rows.append(f"{mode},{name},{ev.mean_ap!r},{ev.rank1!r},{final.cluster_count},"
                        f"{skipped}")
            print(f"{mode:9s} {name:11s} mAP {ev.mean_ap:.4f} R1 {ev.rank1:.4f} "
                  f"clusters {final.cluster_count} skipped iterations {skipped}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


def cmd_sweep_eps(args) -> int:
    try:
        eps_grid = [float(e) for e in args.eps_grid.split(",")]
    except ValueError:
        raise SelfReidError(f"--eps-grid needs comma-separated numbers, "
                            f"got {args.eps_grid!r}") from None
    dataset = load_dataset(args.data)
    if len(dataset) < 2:  # so 1 record: load_dataset rejects a file of none
        raise SelfReidError(f"{args.data}: {len(dataset)} record; sweep-eps re-ranks at least 2")
    configs = [ClusterConfig(k1=args.k1, k2=args.k2, eps=eps, min_samples=args.min_samples)
               for eps in eps_grid]
    for config in configs:  # fail before re-ranking
        config.validate()
    if args.checkpoint:
        pair, _ = load_checkpoint(args.checkpoint)
        require_input_width(f"checkpoint {args.checkpoint}", pair.online.w1.shape[0],
                            (args.data, dataset))
    else:
        pair = init_state(TrainConfig(seed=args.seed), dataset).pair
    bank = extract_bank(pair, dataset.features)
    pairs = jaccard_distance_matrix(bank, *configs[0].neighborhoods(len(dataset)), max(eps_grid))

    print("eps,n_clusters,n_outliers")
    assignments = [dbscan(pairs, config) for config in configs]
    for eps, assignment in zip(eps_grid, assignments):
        print(f"{eps},{assignment.cluster_count},{assignment.outlier_count}")
    if args.dump:
        indptr, cols, values = (a.tolist() for a in pairs[:3])
        with open(args.dump, "w") as fh:
            fh.write(f"# jaccard pairs {len(bank)}x{len(bank)} upper triangle "
                     f"max_distance={pairs.max_distance}: row column distance\n")
            for row, (a, b) in enumerate(zip(indptr, indptr[1:])):
                fh.writelines(f"{row} {col} {value!r}\n"
                              for col, value in zip(cols[a:b], values[a:b]))
            for eps, assignment in zip(eps_grid, assignments):
                fh.write(f"# assignment eps={eps}\n")
                fh.write(" ".join(str(int(l)) for l in assignment.labels) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfreid",
        description="Unsupervised re-identification embeddings at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    spec = {key: f for key, _, f in SyntheticSpec.leaves()}
    for flag, key in GENERATE_FLAGS.items():
        _add_setting_flag(gen, flag, spec[key], default=spec[key].default)
    gen.add_argument("--out-dir", default="data")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train on a dataset file")
    tr.add_argument("--data", help="training dataset file")
    tr.add_argument("--query", help="query split for evaluation")
    tr.add_argument("--gallery", help="gallery split for evaluation")
    tr.add_argument("--out-dir", default="run")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument("--from-manifest", help="re-run an earlier manifest exactly")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--query", required=True)
    ev.add_argument("--gallery", required=True)
    ev.add_argument("--out", help="write the report as key=value text")
    ev.add_argument("--append-csv", help="append an eval row to a run's metrics.csv, or "
                    "start a new one at a missing or empty path; any other file is an error")
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser("ablate", help="loss-term grid in both memory modes")
    ab.add_argument("--data", required=True)
    ab.add_argument("--query", required=True)
    ab.add_argument("--gallery", required=True)
    ab.add_argument("--out", help="write the comparison table as CSV")
    ab.set_defaults(func=cmd_ablate)
    for command in (tr, ab):  # the config flags, after each command's own
        for key, _, f in TrainConfig.leaves():
            _add_setting_flag(command, key, f, default=None, metavar=f.type.__name__.upper())

    sw = sub.add_parser("sweep-eps", help="cluster counts across DBSCAN thresholds")
    sw.add_argument("--data", required=True)
    sw.add_argument("--checkpoint", help="encoder checkpoint; fresh encoder if omitted")
    sw.add_argument("--eps-grid", default=",".join(str(e) for e in EPS_GRID))
    for key, _, f in ClusterConfig.leaves():
        if key != "eps":  # --eps-grid
            _add_setting_flag(sw, key, f, default=f.default)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--dump", help="debug dump of the upper-triangle distance pairs and labels")
    sw.set_defaults(func=cmd_sweep_eps)
    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # each shown as one line, without its source
            warnings.showwarning = _print_warning
            status = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return status
    except (SelfReidError, MemoryError, BrokenPipeError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):  # Python's signal docs: exit flushes again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
