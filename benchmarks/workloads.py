"""The benchmark workloads: inputs, the CLI stages of one round, checks and
end-to-end metrics.

Both workloads run the paper's whole pipeline, so every metric is measured
on each: train-kge for three model kinds on a ConceptNet-style graph, then
retrieve, train-fusion, predict, single-record predict and congruence on
campaign records. They differ in the concept vocabulary the campaigns,
retrieval and congruence draw on.

A round runs every stage once on the same inputs. Every round is the same
set of operations, so the share of failed operations cannot depend on how
many rounds fit in a run.
"""
from __future__ import annotations

import itertools
import json
import statistics
from pathlib import Path

import numpy as np

import checks
import gen

from knowfuse import fusion, stores
from knowfuse.fusion import load_checkpoint

RETRIEVE_K = 10


def _rate(work: float, times) -> float:
    """Work per second over every round of the run. The host runs a fixed
    loop 10 to 25% faster for a second or more at a time, so the figure
    pools all rounds rather than picking one of their few values."""
    return work / float(sum(times))


# ---- kge ---------------------------------------------------------------

KGE_KINDS = {
    # kind: (dim, learning rate, epochs, negatives per positive). Each trains
    # long enough for its filtered mean rank to vary little from seed to
    # seed, and the three together last about six seconds, so a run measures
    # several rounds. DistMult diverges at lr 0.3 and its rank scatters from
    # seed to seed at 0.2; at 0.1 the worst of 40 seeds came within 5% of the
    # check's ceiling, at 0.15 the worst of 30 reports a rank 30% below it.
    "transe": (32, 0.2, 6, 1),
    "rotate": (96, 0.7, 3, 1),
    "distmult": (64, 0.15, 6, 1),
}
# Full and tiny (warm-up) graphs, the same on both workloads. 800 held-out
# triples, not 400: with 400, ten seeds' TransE and DistMult mean ranks
# spread past 0.25 in 1 to 2% of draws, with 800 in at most 0.1%.
GRAPH = gen.GraphSize(entities=1000, clusters=20, triples=5400, heldout=800)
TINY_GRAPH = gen.GraphSize(entities=200, clusters=8, triples=900, heldout=20)


# ---- fusion ------------------------------------------------------------

FUSION_EPOCHS = 3
# At 1e-3 the validation accuracy of some seeds falls epoch by epoch; one
# seed in 40 ended at AUC 0.77, near the check's floor. At 5e-4 seeds 1 to
# 20 end between 0.953 and 0.980 on both workloads.
FUSION_LR = 5e-4
ONE_BY_ONE = 200  # records of the new-campaign file scored one at a time


class Pipeline:
    """One workload: the graph for train-kge and its own campaigns for the
    rest, at full size and at the tiny size of the warm-up."""

    def __init__(self, name: str, campaigns: gen.CampaignSize, tiny: gen.CampaignSize) -> None:
        self.name = name
        self.campaigns, self.tiny_campaigns = campaigns, tiny

    def generate(self, work: Path, seed: int, tiny: bool) -> dict:
        graph = TINY_GRAPH if tiny else GRAPH
        campaigns = self.tiny_campaigns if tiny else self.campaigns
        info = gen.make_graph(work / "graph.csv", seed, graph)
        # kg.corrupt gives up after 100 uniform draws. With at most a
        # quarter of the entities known as tails of one (head, relation),
        # all 100 miss with odds below 1e-60.
        if info["max_tails_per_head_relation"] > graph.entities // 4:
            raise RuntimeError(f"graph hub too dense for negative sampling: {info}")
        info.update(gen.make_campaigns(work, seed, campaigns))
        config = work / "fusion_config.json"
        # Patience equal to the epoch count lets every planned epoch run.
        config.write_text(json.dumps({"fusion": {"early_stop_patience": FUSION_EPOCHS}}))
        return {"dir": work, "graph_size": graph, "size": campaigns, "seed": seed,
                "config": config, **info}

    def prepare(self, inp: dict) -> None:
        """Untimed loads a round needs beyond the CLI inputs: the records
        scored one at a time, with the stores they refer to."""
        d = inp["dir"]
        with (d / "new.jsonl").open(encoding="utf-8") as fh:
            head = list(itertools.islice(fh, ONE_BY_ONE))
        (d / "one_by_one.jsonl").write_text("".join(head), encoding="utf-8")
        concepts = stores.read_store(d / "concepts.emb")
        mm = stores.read_store(d / "new_mm.emb")
        records = stores.read_records_jsonl(d / "one_by_one.jsonl", mm, concepts)
        inp["one_by_one"] = (records, concepts)

    def round(self, ctx, inp: dict, out: Path) -> dict:
        """Run every stage once; return the per-round raw figures."""
        raw = {"train_s": {}, "pairs": {}, "eval_s": 0.0, "queries": 0, "s": {}, "one": [],
               "size": inp["size"]}
        self._kge(ctx, inp, out, raw)
        self._classify(ctx, inp, out, raw)
        return raw

    def _kge(self, ctx, inp, out, raw) -> None:
        capture = inp.setdefault("capture", {})
        for kind, (dim, lr, epochs, negatives) in KGE_KINDS.items():
            ctx.call(f"train_kge.{kind}", [
                "train-kge", "--triples", str(inp["dir"] / "graph.csv"), "--format", "conceptnet-csv",
                "--kind", kind, "--dim", str(dim), "--epochs", str(epochs), "--lr", str(lr),
                "--margin", "1.0", "--negatives", str(negatives),
                "--heldout", str(inp["graph_size"].heldout),
                "--seed", str(inp["seed"]), "--out", str(out / kind),
            ])
            train, evaluate = ctx.stage_calls()
            train_kg, cfg = train["args"]
            raw["train_s"][kind] = train["s"]
            raw["pairs"][kind] = len(train_kg.triples) * cfg.epochs * cfg.negatives_per_positive
            raw["eval_s"] += evaluate["s"]
            raw["queries"] += evaluate["result"].num_queries
            if kind not in capture:
                # Plain tuples, so the graph objects die with the command
                # and later stages do not carry them through the collector.
                model, eval_kg, heldout = evaluate["args"][:3]
                held = [t.as_tuple() for t in heldout]
                capture[kind] = (model, eval_kg.known_set | set(held), held)

    def _classify(self, ctx, inp, out, raw) -> None:
        d = inp["dir"]
        raw["s"]["train_fusion"] = ctx.call("train_fusion", [
            "train-fusion", "--records", str(d / "train.jsonl"), "--mm-store", str(d / "train_mm.emb"),
            "--concept-store", str(d / "concepts.emb"), "--epochs", str(FUSION_EPOCHS),
            "--lr", str(FUSION_LR), "--batch-size", "16", "--d-model", "256", "--heads", "4",
            "--config", str(inp["config"]), "--seed", str(inp["seed"]), "--out", str(out / "fusion"),
        ])
        # The checkpoint load readies the scorer and is not part of a call.
        net = load_checkpoint(out / "fusion" / "fusion.ckpt")
        records, concepts = inp["one_by_one"]
        batches = [records[i::4] for i in range(4)]

        def score_one_by_one():
            # A quarter of the single-record calls after each batch stage,
            # so the round's median latency samples four moments, not one.
            raw["one"].extend((r.id, ctx.op("predict_one", fusion.predict, net, r, concepts))
                              for r in batches.pop())

        score_one_by_one()
        raw["s"]["retrieve"] = ctx.call("retrieve", [
            "retrieve", "--concepts", str(d / "concepts.emb"), "--queries", str(d / "new_text.emb"),
            "--caption-queries", str(d / "new_caption.emb"), "--k", str(RETRIEVE_K),
            "--out", str(out / "retrieve"),
        ])
        score_one_by_one()
        raw["s"]["predict"] = ctx.call("predict", [
            "predict", "--checkpoint", str(out / "fusion" / "fusion.ckpt"),
            "--records", str(d / "new.jsonl"), "--mm-store", str(d / "new_mm.emb"),
            "--concept-store", str(d / "concepts.emb"), "--out", str(out / "predict"),
        ])
        score_one_by_one()
        raw["s"]["congruence"] = ctx.call("congruence", [
            "congruence", "--text-store", str(d / "train_text.emb"),
            "--image-store", str(d / "train_caption.emb"), "--concept-store", str(d / "concepts.emb"),
            "--pairs", str(d / "train.jsonl"), "--out", str(out / "congruence"),
        ])
        score_one_by_one()

    def check(self, inp: dict, out: Path, raw: dict) -> dict:
        """Verify the first round's outputs; return its quality figures."""
        quality = {}
        for kind, (_, _, epochs, _) in KGE_KINDS.items():
            quality[f"kge.{kind}.mean_rank"] = checks.check_kge(
                out / kind, kind, epochs, inp["capture"][kind]
            )
        d = inp["dir"]
        ties = checks.check_retrieval(d / "concepts.emb", d / "new_text.emb", d / "new_caption.emb",
                                      out / "retrieve" / "retrieved.jsonl", RETRIEVE_K,
                                      inp["duplicate_of"])
        checks.require(ties > 0, "retrieve: no exact tie reached a top k; the tie check saw nothing")
        quality["n_train"] = checks.check_fusion_metrics(out / "fusion" / "metrics.json", FUSION_EPOCHS)
        rows, auc = checks.check_predictions(out / "predict" / "predictions.jsonl", d / "new.jsonl")
        labels = np.array([r["label"] for r in checks.read_jsonl(d / "new.jsonl")])
        oracle = checks.pair_auc(labels, inp["new_vote"])
        floor = 0.5 + 0.5 * (oracle - 0.5)
        checks.require(auc >= floor, f"predict: AUC {auc} below the floor {floor} "
                                     f"(the generator's concept vote scores {oracle})")
        quality["predict.auc"] = auc
        for rec_id, (_, (label, (_, p1))) in raw["one"]:
            batched = rows[rec_id]
            checks.require(label == batched["label"] and abs(p1 - batched["p1"]) <= 1e-9,
                           f"fusion.predict {rec_id}: {label}, {p1!r} vs batched {batched}")
        checks.check_congruence(out / "congruence" / "congruence.json", d / "train_text.emb",
                                d / "train_caption.emb", d / "concepts.emb", d / "train.jsonl")
        return quality

    def metrics(self, raws: list[dict], quality: dict) -> dict[str, float]:
        rounds = len(raws)
        m = {f"kge.{k}.pairs_per_s": _rate(rounds * raws[0]["pairs"][k], (r["train_s"][k] for r in raws))
             for k in KGE_KINDS}
        m["link_eval.queries_per_s"] = _rate(rounds * raws[0]["queries"], (r["eval_s"] for r in raws))
        for k in KGE_KINDS:
            m[f"kge.{k}.mean_rank"] = quality[f"kge.{k}.mean_rank"]
        n_fit = quality["n_train"] * FUSION_EPOCHS
        size = raws[0]["size"]
        m["retrieve.queries_per_s"] = _rate(rounds * size.queries, (r["s"]["retrieve"] for r in raws))
        m["fusion_train.records_per_s"] = _rate(rounds * n_fit, (r["s"]["train_fusion"] for r in raws))
        m["predict.records_per_s"] = _rate(rounds * size.new, (r["s"]["predict"] for r in raws))
        m["predict.auc"] = quality["predict.auc"]
        # Hundreds of calls a run: their median is steady and ignores the
        # odd call that a collector pause lands in.
        m["predict_one.ms"] = 1e3 * statistics.median(s for r in raws for _, (s, _) in r["one"])
        return m


WORKLOADS = {w.name: w for w in (
    Pipeline(
        "paper",
        gen.CampaignSize(train=1500, new=4000, concepts=400, duplicates=8, queries=4000),
        gen.CampaignSize(train=120, new=40, concepts=40, duplicates=2, queries=40),
    ),
    # A ConceptNet-sized vocabulary. Retrieval against it runs about 120
    # queries/s, so it gets 500 queries to keep the round near 18 s.
    Pipeline(
        "large-vocab",
        gen.CampaignSize(train=1500, new=4000, concepts=20000, duplicates=400, queries=500),
        gen.CampaignSize(train=120, new=40, concepts=2000, duplicates=40, queries=40),
    ),
)}
