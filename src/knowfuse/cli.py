"""Command line driver for the full pipeline.

Subcommands: synth, train-kge, retrieve, train-fusion, predict, congruence.
Each subcommand declares its settings once, in `build_parser`: a setting is
a flag whose dest is its config key, or a key only a config file sets.
`main` resolves every setting as flag > config[section][key] > default
before the command runs, and rejects config keys that nothing reads. One
top-level seed is fanned out per stage through a stable hash, so every
command is deterministic given identical inputs and seed.

Exit codes: 0 success, 1 validation or contract failure, 2 I/O failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import congruence as cong
from . import fusion, kge, metrics, retrieval, stores
from .errors import KnowfuseError, check_value
from .kg import holdout_split, load_triples

LR_SWEEP = (1e-4, 5e-5)
# Top-level config keys read by value, with their defaults; the other
# top-level keys are the command sections.
TOP_LEVEL = {"seed": 0, "splits": fusion.DEFAULT_SPLIT_SHAPE}
CONFIG_KEYS = {*TOP_LEVEL, "synth", "kge", "retrieval", "fusion"}


def derive_seed(base: int, stage: str) -> int:
    """Stable per-stage child seed from the top-level seed."""
    check_value("seed", base, int)
    digest = hashlib.sha256(f"{base}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _reject_unknown(given: dict, allowed, what: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} {unknown}")


def _resolve(args) -> None:
    """Fill each setting the command line left at None from the command's
    config section, then from its declared default; None left over means
    the config dataclass's own default. The seed falls back to the
    config's top level, then 0."""
    config = {}
    if getattr(args, "config", None) is not None:  # a command with no section has no --config
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        _reject_unknown(config, CONFIG_KEYS, "config keys")
    section = config.get(args.section, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {args.section!r} must be a JSON object")
    _reject_unknown(section, args.settings, f"{args.section} settings")
    for key, value in section.items():
        if value is None:
            raise ValueError(f"config {args.section}.{key} must not be null")
    for key, default in args.settings.items():
        if getattr(args, key, None) is None:  # config-only keys have no flag
            setattr(args, key, section.get(key, default))
    for key, default in TOP_LEVEL.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, default))


def _build(cls, args, stage: str, **fixed):
    """cls from the resolved settings named like its fields, overridden by
    `fixed`, with a seed derived for `stage`. A None value leaves the
    field at cls's default."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    values |= fixed | {"seed": derive_seed(args.seed, stage)}
    return cls(**{key: value for key, value in values.items() if value is not None})


def _split_records(records, seed: int, shape: dict) -> tuple[list, list, list]:
    """Shuffle and split by the configured split shape, scaled to n. Each
    split must hold both labels, for its AUC."""
    if not isinstance(shape, dict) or sorted(shape) != ["test", "train", "val"]:
        raise ValueError(f"splits must be an object of exactly train, val and test, got {shape!r}")
    for key, value in shape.items():
        check_value(f"splits.{key}", value, float, min=0, open=True)
    n = len(records)
    total = shape["train"] + shape["val"] + shape["test"]
    check_value("the sum of splits", total, float)
    n_val = int(round(n * shape["val"] / total))
    n_test = int(round(n * shape["test"] / total))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"{n} records are too few to split {shape}")
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(n)
    splits = [[records[i] for i in rows] for rows in np.split(order, [n_train, n_train + n_val])]
    for name, split in zip(("train", "val", "test"), splits):
        labels = {r.label for r in split}
        if len(labels) < 2:
            raise ValueError(f"all {len(split)} records of the {name} split have label "
                             f"{labels.pop()}; each split needs both labels")
    return tuple(splits)


def cmd_synth(args) -> None:
    cfg = _build(stores.SynthConfig, args, "synth")
    records, concept_store = stores.synth_dataset(cfg)
    stores.write_store(records_store := stores.records_to_store(records), args.out / "multimodal.emb")
    stores.write_store(concept_store, args.out / "concepts.emb")
    stores.write_records_jsonl(records, concept_store, args.out / "records.jsonl")
    n1 = sum(r.label for r in records)
    print(
        f"synth: wrote {len(records)} records (dim {records_store.dim}, "
        f"{len(records) - n1} unsuccessful / {n1} successful), "
        f"{concept_store.n} concepts (dim {concept_store.dim}) to {args.out}"
    )


def cmd_train_kge(args) -> None:
    cfg = _build(kge.KgeTrainConfig, args, "kge")
    graph = load_triples(args.triples, fmt=args.format)
    train_kg, heldout = holdout_split(graph, args.heldout, derive_seed(args.seed, "kge-holdout"))
    model, trace = kge.train(train_kg, cfg)
    result = kge.link_predict_eval(model, train_kg, heldout)

    entity_store = stores.EmbeddingStore(
        dim=cfg.dim,
        names=graph.entities,
        vectors=model.entity_emb.astype(np.float32),
        kind_tag="concept",
    )
    stores.write_store(entity_store, args.out / "entities.emb")
    meta = [f"{key}={getattr(cfg, key)}" for key in (
        "kind", "dim", "norm", "seed", "epochs", "learning_rate", "margin", "negatives_per_positive")]
    meta += [f"entities={graph.num_entities}", f"relations={graph.num_relations}",
             f"train_triples={len(train_kg.triples)}", f"heldout_triples={len(heldout)}"]
    (args.out / "kge_meta.txt").write_text("\n".join(meta) + "\n")
    stores.write_csv(["epoch", "mean_loss"],
                     ([i, repr(loss)] for i, loss in enumerate(trace, start=1)),
                     args.out / "loss_trace.csv")
    stores.write_json(
        {
            "mean_rank": result.mean_rank,
            "hits_at": {str(k): v for k, v in result.hits_at.items()},
            "num_queries": result.num_queries,
        },
        args.out / "link_metrics.json",
    )
    hits = " ".join(f"hits@{k}={v:.4f}" for k, v in sorted(result.hits_at.items()))
    print(f"train-kge: mean_rank={result.mean_rank:.3f} {hits}")


def cmd_retrieve(args) -> None:
    concept_store = stores.read_store(args.concepts)
    queries = stores.read_store(args.queries)
    captions = stores.read_store(args.caption_queries) if args.caption_queries else None
    if captions is not None and captions.names != queries.names:
        raise ValueError("caption store must carry the same row names as the query store")

    index = retrieval.ConceptIndex(concept_store)
    retrieval.top_k(index, queries.vectors[:0], args.k)  # checks k and dim before any output

    def blocks():
        # One block of queries at a time, so memory does not grow with their count.
        step = index.block_rows(args.k)
        for start in range(0, queries.n, step):
            rows = slice(start, start + step)
            block = queries.vectors[rows]
            if captions is not None:
                block = retrieval.combine_text_caption(block, captions.vectors[rows], first=start)
            yield from zip(queries.names[rows], retrieval.top_k(index, block, args.k, first=start))

    out = args.out / "retrieved.jsonl"
    try:
        stores.write_retrieved_jsonl(blocks(), out)
    except ValueError:
        out.unlink()  # a bad query row leaves no partial output
        raise
    print(f"retrieve: wrote top-{args.k} concepts for {queries.n} queries to {args.out}")


def cmd_train_fusion(args) -> None:
    mm_store = stores.read_store(args.mm_store)
    concept_store = stores.read_store(args.concept_store)
    records = stores.read_records_jsonl(args.records, mm_store, concept_store)
    train, val, test = _split_records(records, args.seed, args.splits)

    results = [
        fusion.train_classifier(train, concept_store, _build(
            fusion.FusionConfig, args, "fusion", learning_rate=lr,
            use_knowledge=not args.no_knowledge, multimodal_dim=mm_store.dim,
            knowledge_dim=concept_store.dim), val_records=val)
        for lr in (LR_SWEEP if args.lr_sweep else (args.learning_rate,))
    ]
    # train_classifier restores the epoch with the best validation accuracy,
    # so that is the model's; max keeps the first lr on ties and with no epochs.
    result = max(results, key=lambda r: max((row["val_acc"] for row in r.history), default=-1.0))

    fusion.save_checkpoint(result.net, args.out / "fusion.ckpt")
    if result.net.cfg.train_concepts:
        stores.write_store(result.concepts, args.out / "concepts_tuned.emb")

    columns = ["epoch", "lr", "train_loss", "train_acc", "val_acc"]
    stores.write_csv(columns, ([row["epoch"], *(repr(row[c]) for c in columns[1:])]
                               for row in result.history), args.out / "history.csv")

    # Each split is scored once, by the saved net against the saved concepts.
    summary = {"lr_selected": result.net.cfg.learning_rate, "epochs_ran": len(result.history)}
    for split_name, split in zip(("train", "val", "test"), (train, val, test)):
        summary[split_name] = asdict(metrics.evaluate(
            *fusion.evaluate_records(result.net, split, result.concepts)))
    stores.write_json(summary, args.out / "metrics.json")

    t = summary["test"]
    print(
        "train-fusion: test "
        f"precision={t['precision']:.4f} recall={t['recall']:.4f} "
        f"f1={t['f1']:.4f} auc={t['auc']:.4f} accuracy={t['accuracy']:.4f}"
    )


def cmd_predict(args) -> None:
    net = fusion.load_checkpoint(args.checkpoint)
    mm_store = stores.read_store(args.mm_store)
    concept_store = stores.read_store(args.concept_store)
    records = stores.read_records_jsonl(args.records, mm_store, concept_store)
    labels, preds, p1 = fusion.evaluate_records(net, records, concept_store)
    stores.write_predictions_jsonl([r.id for r in records], preds, p1,
                                   args.out / "predictions.jsonl")
    acc = metrics.accuracy(labels, preds)
    print(f"predict: wrote {len(records)} predictions (accuracy vs file labels {acc:.4f})")


def cmd_congruence(args) -> None:
    text_store = stores.read_store(args.text_store)
    image_store = stores.read_store(args.image_store)
    if image_store.names != text_store.names:
        raise ValueError("image store must carry the same row names as the text store")
    knowledge = None
    if args.pairs or args.concept_store:
        if not (args.pairs and args.concept_store):
            raise ValueError("--pairs and --concept-store must be given together")
        concept_store = stores.read_store(args.concept_store)
        if concept_store.dim != text_store.dim:
            raise ValueError(f"concept store dim {concept_store.dim} differs from "
                             f"modality dim {text_store.dim}")
        concept_map = stores.read_concept_map(args.pairs)
        knowledge = np.empty((text_store.n, text_store.dim))
        for i, name in enumerate(text_store.names):
            if not concept_map.get(name):  # absent, or listed with no names
                raise ValueError(f"no concept names for pair {name!r} in {args.pairs}")
            rows = [concept_store.row_index(c) for c in concept_map[name]]
            knowledge[i] = concept_store.vectors[rows].mean(axis=0, dtype=np.float64)
    pairs = cong.ModalityPairSet(
        text_vecs=text_store.vectors,
        image_vecs=image_store.vectors,
        knowledge=knowledge,
        ids=list(text_store.names),
    )
    rep = cong.report(pairs)
    stores.write_json(rep.to_dict(), args.out / "congruence.json")
    cong.write_pair_csv(rep, args.out / "pairs.csv")
    line = (
        f"congruence: centroid_distance={rep.centroid_distance:.6f} "
        f"mean_cosine={rep.mean_pairwise_cosine:.6f}"
    )
    if rep.relative_similarity_change is not None:
        line += (
            f" with_knowledge_mean_cosine={rep.mean_pairwise_cosine_with:.6f}"
            f" relative_change={rep.relative_similarity_change:+.4%}"
        )
    print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowfuse",
        description="Knowledge-infused multimodal classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, section=None, seeded=False, config_only=(), **defaults):
        """A subcommand, with --config if it has a config `section` and --seed if
        `seeded`. Its settings, the keys config[section] may hold, are the flags
        added through the returned `setting`, the seed if `seeded`, and
        `config_only`; `defaults` are those that no config dataclass holds."""
        p = sub.add_parser(name, help=summary)
        if section:
            p.add_argument("--config", help="JSON config file; flags override it")
        if seeded:
            p.add_argument("--seed", type=int, help="top-level seed (default 0)")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        settings = dict.fromkeys(("seed",) if seeded else ()) | dict.fromkeys(config_only)
        p.set_defaults(func=func, section=section, settings=settings)

        def setting(flag, **kwargs):
            dest = p.add_argument(flag, **kwargs).dest
            settings[dest] = defaults.get(dest)

        return p, setting

    p, setting = command("synth", cmd_synth, "generate a synthetic labelled dataset",
                         "synth", seeded=True)
    setting("--n", type=int)
    setting("--dim", type=int)
    setting("--class-ratio", type=float)
    setting("--signal", dest="concept_signal_strength", type=float,
            help="concept signal strength in [0, 1]")
    setting("--concept-dim", type=int)
    setting("--n-concepts", type=int)
    setting("--concepts-per-record", type=int)

    p, setting = command("train-kge", cmd_train_kge, "train knowledge-graph embeddings",
                         "kge", seeded=True, format="tsv", heldout=10)
    p.add_argument("--triples", required=True)
    setting("--format", choices=("tsv", "conceptnet-csv"))
    setting("--kind", choices=kge.KINDS)
    setting("--dim", type=int)
    setting("--epochs", type=int)
    setting("--lr", dest="learning_rate", type=float)
    setting("--margin", type=float)
    setting("--negatives", dest="negatives_per_positive", type=int)
    setting("--norm", choices=("l1", "l2"))
    setting("--heldout", type=int, help="triples held out for evaluation")

    p, setting = command("retrieve", cmd_retrieve, "top-k concept retrieval for query vectors",
                         "retrieval", k=10)
    p.add_argument("--concepts", required=True, help="concept embedding store")
    p.add_argument("--queries", required=True, help="query embedding store")
    p.add_argument("--caption-queries",
                   help="optional caption store; queries become the combined text+caption vector")
    setting("--k", type=int)

    p, setting = command("train-fusion", cmd_train_fusion, "train the fusion classifier",
                         "fusion", seeded=True,
                         config_only=("warmup_fraction", "early_stop_patience"))
    p.add_argument("--records", required=True)
    p.add_argument("--mm-store", required=True)
    p.add_argument("--concept-store", required=True)
    setting("--lr", dest="learning_rate", type=float)
    p.add_argument("--lr-sweep", action="store_true",
                   help=f"try learning rates {LR_SWEEP} and keep the better val accuracy")
    p.add_argument("--no-knowledge", action="store_true",
                   help="ablation: classify the projected multimodal vector alone")
    setting("--epochs", type=int)
    setting("--batch-size", type=int)
    setting("--d-model", type=int)
    setting("--heads", dest="num_heads", type=int)
    setting("--train-concepts", action="store_const", const=True,
            help="also fine-tune concept vectors")

    p, _ = command("predict", cmd_predict, "classify records with a saved checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--mm-store", required=True)
    p.add_argument("--concept-store", required=True)

    p, _ = command("congruence", cmd_congruence, "text/image congruence report")
    p.add_argument("--text-store", required=True)
    p.add_argument("--image-store", required=True)
    p.add_argument("--concept-store")
    p.add_argument("--pairs", help="JSONL mapping pair id to concept_names")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _resolve(args)
        args.out.mkdir(parents=True, exist_ok=True)
        args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KnowfuseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
