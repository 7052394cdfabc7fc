"""Command line driver for the full pipeline.

Subcommands: synth, train-kge, retrieve, train-fusion, predict, congruence.
Options come from an optional JSON config file plus flags, with flags
winning. One top-level seed is fanned out per stage through a stable hash,
so every command is deterministic given identical inputs and seed.

Exit codes: 0 success, 1 validation or contract failure, 2 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import congruence as cong
from . import fusion, kge, metrics, retrieval, stores
from .errors import KnowfuseError
from .kg import holdout_split, load_triples

LR_SWEEP = (1e-4, 5e-5)


def derive_seed(base: int, stage: str) -> int:
    """Stable per-stage child seed from the top-level seed."""
    digest = hashlib.sha256(f"{base}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _settings(config: dict, section: str, **flags) -> dict:
    """Settings resolved as flag > config[section][key].

    Each keyword names a setting and carries its flag value (None when the
    setting has no flag or the flag was not given). Settings set by neither
    are left out, so a config dataclass fills in its own default.
    """
    given = config.get(section, {})
    picked = {key: given[key] for key in flags if key in given}
    picked.update((key, flag) for key, flag in flags.items() if flag is not None)
    return picked


def _pick(flag, config: dict, section: str, key: str, default):
    """flag > config[section][key] > default, for settings no dataclass holds."""
    return _settings(config, section, **{key: flag}).get(key, default)


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _split_records(records, seed: int, shape: dict) -> tuple[list, list, list]:
    """Shuffle and split by the configured split shape, scaled to n."""
    n = len(records)
    total = shape["train"] + shape["val"] + shape["test"]
    n_val = int(round(n * shape["val"] / total))
    n_test = int(round(n * shape["test"] / total))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"{n} records are too few to split {shape}")
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(n)
    train = [records[i] for i in order[:n_train]]
    val = [records[i] for i in order[n_train : n_train + n_val]]
    test = [records[i] for i in order[n_train + n_val :]]
    return train, val, test


def cmd_synth(args) -> None:
    config = _load_config(args.config)
    seed = _pick(args.seed, config, "synth", "seed", config.get("seed", 0))
    cfg = stores.SynthConfig(
        seed=derive_seed(seed, "synth"),
        **_settings(config, "synth", n=args.n, dim=args.dim, class_ratio=args.class_ratio,
                    concept_signal_strength=args.signal, concept_dim=args.concept_dim,
                    n_concepts=args.n_concepts, concepts_per_record=args.concepts_per_record),
    )
    records, concept_store = stores.synth_dataset(cfg)
    out = _out_dir(args)
    stores.write_store(records_store := stores.records_to_store(records), out / "multimodal.emb")
    stores.write_store(concept_store, out / "concepts.emb")
    stores.write_records_jsonl(records, concept_store, out / "records.jsonl")
    n1 = sum(r.label for r in records)
    print(
        f"synth: wrote {len(records)} records (dim {records_store.dim}, "
        f"{len(records) - n1} unsuccessful / {n1} successful), "
        f"{concept_store.n} concepts (dim {concept_store.dim}) to {out}"
    )


def cmd_train_kge(args) -> None:
    config = _load_config(args.config)
    seed = _pick(args.seed, config, "kge", "seed", config.get("seed", 0))
    cfg = kge.KgeTrainConfig(
        seed=derive_seed(seed, "kge"),
        **_settings(config, "kge", kind=args.kind, dim=args.dim, learning_rate=args.lr,
                    margin=args.margin, epochs=args.epochs,
                    negatives_per_positive=args.negatives, norm=args.norm),
    )
    fmt = _pick(args.format, config, "kge", "format", "tsv")
    heldout_count = _pick(args.heldout, config, "kge", "heldout", 10)

    graph = load_triples(args.triples, fmt=fmt)
    train_kg, heldout = holdout_split(graph, heldout_count, derive_seed(seed, "kge-holdout"))
    model, trace = kge.train(train_kg, cfg)
    result = kge.link_predict_eval(model, train_kg, heldout)

    out = _out_dir(args)
    entity_store = stores.EmbeddingStore(
        dim=cfg.dim,
        names=graph.entity_vocab.labels,
        vectors=model.entity_emb.astype(np.float32),
        kind_tag="concept",
    )
    stores.write_store(entity_store, out / "entities.emb")
    meta = [
        f"kind={cfg.kind}",
        f"dim={cfg.dim}",
        f"norm={cfg.norm}",
        f"seed={cfg.seed}",
        f"epochs={cfg.epochs}",
        f"learning_rate={cfg.learning_rate}",
        f"margin={cfg.margin}",
        f"negatives_per_positive={cfg.negatives_per_positive}",
        f"entities={graph.num_entities}",
        f"relations={graph.num_relations}",
        f"train_triples={len(train_kg.triples)}",
        f"heldout_triples={len(heldout)}",
    ]
    (out / "kge_meta.txt").write_text("\n".join(meta) + "\n")
    with (out / "loss_trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss"])
        for i, loss in enumerate(trace, start=1):
            writer.writerow([i, repr(loss)])
    _write_json(
        {
            "mean_rank": result.mean_rank,
            "hits_at": {str(k): v for k, v in result.hits_at.items()},
            "num_queries": result.num_queries,
        },
        out / "link_metrics.json",
    )
    hits = " ".join(f"hits@{k}={v:.4f}" for k, v in sorted(result.hits_at.items()))
    print(f"train-kge: mean_rank={result.mean_rank:.3f} {hits}")


def cmd_retrieve(args) -> None:
    config = _load_config(args.config)
    k = _pick(args.k, config, "retrieval", "k", config.get("retrieval_k", 10))
    concept_store = stores.read_store(args.concepts)
    queries = stores.read_store(args.queries)
    captions = stores.read_store(args.caption_queries) if args.caption_queries else None
    if captions is not None and captions.names != queries.names:
        raise ValueError("caption store must carry the same row names as the query store")

    index = retrieval.ConceptIndex(concept_store)
    out = _out_dir(args)
    # Queries stream through in blocks whose score matrix fits the index's
    # byte budget, so memory does not grow with the number of queries.
    step = index.block_rows
    with (out / "retrieved.jsonl").open("w", encoding="utf-8") as fh:
        for start in range(0, queries.n, step):
            stop = min(start + step, queries.n)
            block = queries.vectors[start:stop]
            try:
                if captions is not None:
                    block = retrieval.combine_text_caption(
                        block, captions.vectors[start:stop]
                    )
                hits = retrieval.top_k(index, block, k)
            except ValueError as exc:
                raise ValueError(
                    f"queries {start} to {stop - 1} (row 0 is {queries.names[start]!r}): {exc}"
                ) from exc
            for name, row in zip(queries.names[start:stop], hits):
                fh.write(
                    json.dumps(
                        {"id": name, "concepts": [{"name": c, "score": s} for c, s in row]},
                        sort_keys=True,
                    )
                    + "\n"
                )
    print(f"retrieve: wrote top-{k} concepts for {queries.n} queries to {out}")


def _fusion_config(
    args, config: dict, seed: int, lr: float | None = None
) -> fusion.FusionConfig:
    """The fusion config from flags and config; lr, when given, wins over both."""
    settings = _settings(
        config, "fusion", d_model=args.d_model, num_heads=args.heads,
        multimodal_dim=None, knowledge_dim=None,
        learning_rate=lr if lr is not None else args.lr, warmup_fraction=None,
        batch_size=args.batch_size, epochs=args.epochs, early_stop_patience=None,
        train_concepts=args.train_concepts or None,
    )
    if "train_concepts" in settings:  # a config file may hold any JSON value
        settings["train_concepts"] = bool(settings["train_concepts"])
    return fusion.FusionConfig(
        seed=derive_seed(seed, "fusion"),
        use_knowledge=not args.no_knowledge,
        **settings,
    )


def cmd_train_fusion(args) -> None:
    config = _load_config(args.config)
    seed = _pick(args.seed, config, "fusion", "seed", config.get("seed", 0))
    mm_store = stores.read_store(args.mm_store)
    concept_store = stores.read_store(args.concept_store)
    records = stores.read_records_jsonl(args.records, mm_store, concept_store)
    split_shape = config.get("splits", fusion.DEFAULT_SPLIT_SHAPE)
    train, val, test = _split_records(records, seed, split_shape)

    # Dims follow the stores unless the config pins them.
    config.setdefault("fusion", {}).setdefault("multimodal_dim", mm_store.dim)
    config["fusion"].setdefault("knowledge_dim", concept_store.dim)

    # With --train-concepts the model was trained and early-stopped against
    # its tuned concept vectors, so it is evaluated against them too.
    best = None
    for lr in LR_SWEEP if args.lr_sweep else (None,):
        cfg = _fusion_config(args, config, seed, lr)
        result = fusion.train_classifier(train, concept_store, cfg, val_records=val)
        val_labels, val_preds, _ = fusion.evaluate_records(
            result.net, val, concept_store, result.concept_vectors
        )
        val_acc = float(np.mean(val_labels == val_preds))
        if best is None or val_acc > best[0]:
            best = (val_acc, result)
    result = best[1]

    out = _out_dir(args)
    fusion.save_checkpoint(result.net, out / "fusion.ckpt")
    if result.concept_vectors is not None:
        stores.write_store(
            stores.EmbeddingStore(
                dim=concept_store.dim,
                names=concept_store.names,
                vectors=result.concept_vectors.astype(np.float32),
                kind_tag=concept_store.kind_tag,
            ),
            out / "concepts_tuned.emb",
        )

    with (out / "history.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "train_acc", "val_acc"])
        for row in result.history:
            writer.writerow(
                [row["epoch"], repr(row["lr"]), repr(row["train_loss"]),
                 repr(row["train_acc"]), repr(row["val_acc"])]
            )

    summary = {"lr_selected": result.net.cfg.learning_rate, "epochs_ran": len(result.history)}
    for split_name, split_records in (("train", train), ("val", val), ("test", test)):
        labels, preds, scores = fusion.evaluate_records(
            result.net, split_records, concept_store, result.concept_vectors
        )
        ev = metrics.evaluate(labels, preds, scores)
        entry = ev.to_dict()
        entry["accuracy"] = float(np.mean(labels == preds))
        summary[split_name] = entry
    _write_json(summary, out / "metrics.json")

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
    out = _out_dir(args)
    with (out / "predictions.jsonl").open("w", encoding="utf-8") as fh:
        for record, pred, prob in zip(records, preds, p1):
            fh.write(
                json.dumps(
                    {
                        "id": record.id,
                        "label": int(pred),
                        "p0": 1.0 - float(prob),
                        "p1": float(prob),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    acc = float(np.mean(labels == preds))
    print(f"predict: wrote {len(records)} predictions (accuracy vs file labels {acc:.4f})")


def _read_concept_map(path: str) -> dict[str, list[str]]:
    """id -> concept_names from a records-style JSONL, extra fields ignored."""
    mapping: dict[str, list[str]] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                pair_id, names = obj["id"], list(obj["concept_names"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}: bad pair row on line {lineno}: {exc}") from exc
            if pair_id in mapping:
                raise ValueError(f"{path}: line {lineno}: duplicate id {pair_id!r}")
            mapping[pair_id] = names
    if not mapping:
        raise ValueError(f"{path}: no pairs found")
    return mapping


def cmd_congruence(args) -> None:
    text_store = stores.read_store(args.text_store)
    image_store = stores.read_store(args.image_store)
    if text_store.n != image_store.n:
        raise ValueError(
            f"text store has {text_store.n} rows, image store {image_store.n}"
        )
    knowledge = None
    if args.pairs or args.concept_store:
        if not (args.pairs and args.concept_store):
            raise ValueError("--pairs and --concept-store must be given together")
        concept_store = stores.read_store(args.concept_store)
        concept_map = _read_concept_map(args.pairs)
        knowledge = []
        for name in text_store.names:
            if name not in concept_map:
                raise ValueError(f"no concept names for pair {name!r} in {args.pairs}")
            rows = [concept_store.row(c) for c in concept_map[name]]
            knowledge.append(np.stack(rows))
    pairs = cong.ModalityPairSet(
        text_vecs=text_store.vectors,
        image_vecs=image_store.vectors,
        knowledge_vecs=knowledge,
        ids=list(text_store.names),
    )
    augmented = cong.augment_with_knowledge(pairs) if knowledge is not None else None
    rep = cong.report(pairs, augmented)
    out = _out_dir(args)
    _write_json(rep.to_dict(), out / "congruence.json")
    cong.write_pair_csv(pairs, out / "pairs.csv", augmented)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, help="top-level seed (default 0)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--class-ratio", dest="class_ratio", type=float)
    p.add_argument("--signal", type=float, help="concept signal strength in [0, 1]")
    p.add_argument("--concept-dim", dest="concept_dim", type=int)
    p.add_argument("--n-concepts", dest="n_concepts", type=int)
    p.add_argument("--concepts-per-record", dest="concepts_per_record", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-kge", help="train knowledge-graph embeddings")
    common(p)
    p.add_argument("--triples", required=True)
    p.add_argument("--format", choices=("tsv", "conceptnet-csv"))
    p.add_argument("--kind", choices=kge.KINDS)
    p.add_argument("--dim", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--margin", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--norm", choices=("l1", "l2"))
    p.add_argument("--heldout", type=int, help="triples held out for evaluation")
    p.set_defaults(func=cmd_train_kge)

    p = sub.add_parser("retrieve", help="top-k concept retrieval for query vectors")
    common(p)
    p.add_argument("--concepts", required=True, help="concept embedding store")
    p.add_argument("--queries", required=True, help="query embedding store")
    p.add_argument(
        "--caption-queries",
        dest="caption_queries",
        help="optional caption store; queries become the combined text+caption vector",
    )
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train-fusion", help="train the fusion classifier")
    common(p)
    p.add_argument("--records", required=True)
    p.add_argument("--mm-store", dest="mm_store", required=True)
    p.add_argument("--concept-store", dest="concept_store", required=True)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-sweep", dest="lr_sweep", action="store_true",
                   help=f"try learning rates {LR_SWEEP} and keep the better val accuracy")
    p.add_argument("--no-knowledge", dest="no_knowledge", action="store_true",
                   help="ablation: classify the projected multimodal vector alone")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--train-concepts", dest="train_concepts", action="store_true",
                   help="also fine-tune concept vectors")
    p.set_defaults(func=cmd_train_fusion)

    p = sub.add_parser("predict", help="classify records with a saved checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--mm-store", dest="mm_store", required=True)
    p.add_argument("--concept-store", dest="concept_store", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("congruence", help="text/image congruence report")
    common(p)
    p.add_argument("--text-store", dest="text_store", required=True)
    p.add_argument("--image-store", dest="image_store", required=True)
    p.add_argument("--concept-store", dest="concept_store")
    p.add_argument("--pairs", help="JSONL mapping pair id to concept_names")
    p.set_defaults(func=cmd_congruence)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
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
