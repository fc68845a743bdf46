"""Command-line surface.

Subcommands: generate (synthetic dataset files), train (checkpoints +
metrics CSV + manifest), eval (retrieval metrics for a checkpoint),
ablate (loss-term grid in both memory modes) and sweep-eps (cluster
counts across DBSCAN thresholds on a fixed bank).

train takes one --<key> flag per config key (reporting.config_fields,
with '_' written '-'). A run's config is the TrainConfig defaults,
overridden in turn by --from-manifest, --config and the flags.
"""

import argparse
import os
import sys

import numpy as np

from . import reporting
from .data import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from .encoder import init_pair, load_checkpoint
from .errors import SelfReidError
from .rerank import ClusterConfig, dbscan, jaccard_distance_matrix
from .trainer import MEMORY_MODES, TrainConfig, evaluate_encoder, extract_bank, train

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


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = reporting.config_to_dict(TrainConfig())
    for key, _, f in reporting.config_fields():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=f.type,
                            default=None, metavar=f.type.__name__.upper(),
                            help=f"{f.metadata['help']} (default: {defaults[key]})")


def _given_flags(args) -> dict:
    """Config values given on the command line; absent flags are None."""
    return {key: getattr(args, key) for key, _, _ in reporting.config_fields()
            if getattr(args, key, None) is not None}


def _resolve_config(args, manifest: dict | None) -> TrainConfig:
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


def _check_input_width(checkpoint_path, pair, *splits) -> None:
    """Every (path, dataset) split must have the checkpoint's input width."""
    width = pair.online.w1.shape[0]
    for split_path, split in splits:
        if split.dim != width:
            raise SelfReidError(f"{checkpoint_path}: checkpoint takes {width}-d inputs, "
                                f"but {split_path} has dim {split.dim}")


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        n_identities=args.ids, n_cameras=args.cameras,
        samples_per_cell=args.samples_per_cell, dim=args.dim,
        dispersion=args.dispersion, sigma_identity=args.sigma_id,
        sigma_camera=args.sigma_cam, seed=args.seed)
    train_split, query, gallery = generate_synthetic(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, split in (("train", train_split), ("query", query),
                        ("gallery", gallery)):
        save_dataset(split, os.path.join(args.out_dir, f"{name}.txt"))
    print(f"wrote {len(train_split)} train / {len(query)} query / "
          f"{len(gallery)} gallery records to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    manifest = reporting.read_keyvalue(args.from_manifest) if args.from_manifest else None
    config = _resolve_config(args, manifest)
    data_path = args.data or (manifest or {}).get("data")
    if not data_path:
        raise FileNotFoundError("no training data given (--data or manifest)")
    query_path = args.query or (manifest or {}).get("query", "")
    gallery_path = args.gallery or (manifest or {}).get("gallery", "")

    dataset = load_dataset(data_path)
    query = load_dataset(query_path) if query_path else None
    gallery = load_dataset(gallery_path) if gallery_path else None

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    run_manifest = dict(reporting.config_to_dict(config))
    run_manifest["data"] = data_path
    if query_path:
        run_manifest["query"] = query_path
    if gallery_path:
        run_manifest["gallery"] = gallery_path
    reporting.write_keyvalue(os.path.join(out_dir, "manifest.txt"), run_manifest,
                             header="training run manifest")

    pair, reports = train(config, dataset, query=query, gallery=gallery,
                          checkpoint_dir=out_dir if config.checkpoint_every else None)
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
    pair, _ = load_checkpoint(args.checkpoint)
    query = load_dataset(args.query)
    gallery = load_dataset(args.gallery)
    _check_input_width(args.checkpoint, pair, (args.query, query), (args.gallery, gallery))
    report = evaluate_encoder(pair, query, gallery)
    lines = [f"mAP = {report.mean_ap!r}",
             f"rank1 = {report.rank1!r}",
             f"rank5 = {report.rank5!r}",
             f"rank10 = {report.rank10!r}",
             f"excluded_queries = {report.excluded_queries}"]
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.append_csv:
        reporting.append_eval_row(args.append_csv, report)
    return 0


def cmd_ablate(args) -> int:
    dataset = load_dataset(args.data)
    query = load_dataset(args.query)
    gallery = load_dataset(args.gallery)
    rows = []
    for mode in MEMORY_MODES:
        for name, weights in ABLATION_VARIANTS:
            config = reporting.config_from_dict(
                {**_given_flags(args), "memory_mode": mode, **weights})
            pair, reports = train(config, dataset)
            ev = evaluate_encoder(pair, query, gallery)
            rows.append((mode, name, ev.mean_ap, ev.rank1,
                         reports[-1].cluster_count))
            print(f"{mode:9s} {name:11s} mAP {ev.mean_ap:.4f} "
                  f"R1 {ev.rank1:.4f} clusters {reports[-1].cluster_count}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("memory_mode,variant,mAP,rank1,final_clusters\n")
            for mode, name, m, r1, nc in rows:
                fh.write(f"{mode},{name},{m!r},{r1!r},{nc}\n")
    return 0


def cmd_sweep_eps(args) -> int:
    try:
        eps_grid = [float(e) for e in args.eps_grid.split(",")]
    except ValueError:
        raise SelfReidError(f"--eps-grid needs comma-separated numbers, "
                            f"got {args.eps_grid!r}") from None
    dataset = load_dataset(args.data)
    k1 = min(args.k1, len(dataset) - 1)
    k2 = min(args.k2, len(dataset) - 1)
    configs = [ClusterConfig(k1=k1, k2=k2, eps=eps, min_samples=args.min_samples)
               for eps in eps_grid]
    for config in configs:  # fail before building the n x n distance matrix
        config.validate()
    if args.checkpoint:
        pair, _ = load_checkpoint(args.checkpoint)
        _check_input_width(args.checkpoint, pair, (args.data, dataset))
    else:
        base = TrainConfig()
        rng = np.random.default_rng([args.seed, 0])
        pair = init_pair(dataset.dim, base.hidden_dim, base.out_dim, rng)
    bank = extract_bank(pair, dataset.features)
    dist = jaccard_distance_matrix(bank, k1, k2)

    print("eps,n_clusters,n_outliers")
    assignments = []
    for eps, config in zip(eps_grid, configs):
        assignment = dbscan(dist, config)
        assignments.append((eps, assignment))
        print(f"{eps},{assignment.cluster_count},{assignment.outlier_count}")
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(f"# jaccard distance matrix {dist.shape[0]}x{dist.shape[1]}\n")
            for row in dist:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            for eps, assignment in assignments:
                fh.write(f"# assignment eps={eps}\n")
                fh.write(" ".join(str(int(l)) for l in assignment.labels) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfreid",
        description="Unsupervised re-identification embeddings at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    spec = SyntheticSpec()
    gen.add_argument("--ids", type=int, default=spec.n_identities)
    gen.add_argument("--cameras", type=int, default=spec.n_cameras)
    gen.add_argument("--samples-per-cell", type=int, default=spec.samples_per_cell)
    gen.add_argument("--dim", type=int, default=spec.dim)
    gen.add_argument("--dispersion", type=float, default=spec.dispersion)
    gen.add_argument("--sigma-id", type=float, default=spec.sigma_identity)
    gen.add_argument("--sigma-cam", type=float, default=spec.sigma_camera)
    gen.add_argument("--seed", type=int, default=spec.seed)
    gen.add_argument("--out-dir", default="data")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train on a dataset file")
    tr.add_argument("--data", help="training dataset file")
    tr.add_argument("--query", help="query split for evaluation")
    tr.add_argument("--gallery", help="gallery split for evaluation")
    tr.add_argument("--out-dir", default="run")
    tr.add_argument("--config", help="key=value config file")
    tr.add_argument("--from-manifest", help="re-run an earlier manifest exactly")
    _add_config_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--query", required=True)
    ev.add_argument("--gallery", required=True)
    ev.add_argument("--out", help="write the report as key=value text")
    ev.add_argument("--append-csv", help="append an eval row to a metrics CSV")
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser("ablate", help="loss-term grid in both memory modes")
    ab.add_argument("--data", required=True)
    ab.add_argument("--query", required=True)
    ab.add_argument("--gallery", required=True)
    ab.add_argument("--epochs", type=int, default=None)
    ab.add_argument("--iterations", type=int, default=None)
    ab.add_argument("--seed", type=int, default=None)
    ab.add_argument("--out", help="write the comparison table as CSV")
    ab.set_defaults(func=cmd_ablate)

    sw = sub.add_parser("sweep-eps", help="cluster counts across DBSCAN thresholds")
    cluster = ClusterConfig()
    sw.add_argument("--data", required=True)
    sw.add_argument("--checkpoint", help="encoder checkpoint; fresh encoder if omitted")
    sw.add_argument("--eps-grid", default=",".join(str(e) for e in EPS_GRID))
    sw.add_argument("--k1", type=int, default=cluster.k1)
    sw.add_argument("--k2", type=int, default=cluster.k2)
    sw.add_argument("--min-samples", type=int, default=cluster.min_samples)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--dump", help="debug dump of the distance matrix and labels")
    sw.set_defaults(func=cmd_sweep_eps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except SelfReidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
