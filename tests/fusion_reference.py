"""Single-record reference implementation of the fusion forward and backward.

The library ships one batched forward/backward (knowfuse.fusion). This is an
independent per-record derivation of the same network, kept here as the
oracle the batched path is compared against: forward, backward, the
per-record cross-entropy and a stand-alone scaled dot-product attention.
Gradients include the input gradients "mm_vec" and "kg_vecs".
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from knowfuse.fusion import FusionNet, _einsum, _softmax


@dataclass
class ForwardTrace:
    """Everything backward() needs, cached from one forward pass."""

    mm_vec: np.ndarray
    kg_vecs: np.ndarray | None
    q0: np.ndarray
    cls_in: np.ndarray
    logits: np.ndarray
    use_knowledge: bool
    kv0: np.ndarray | None = None
    q: np.ndarray | None = None  # [H, dh]
    k: np.ndarray | None = None  # [H, n_k, dh]
    v: np.ndarray | None = None  # [H, n_k, dh]
    attn: np.ndarray | None = None  # [H, n_k], rows sum to 1
    concat: np.ndarray | None = None


def attention(query: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention softmax(Q K^T / sqrt(d)) V.

    query is [n_q, d], keys and values [n_k, d]; the softmax is stabilised
    by row-max subtraction. Raises ValueError on empty keys or mismatched
    shapes.
    """
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    k = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    v = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if k.shape[0] == 0:
        raise ValueError("attention needs at least one key")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"query dim {q.shape[1]} != key dim {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"{k.shape[0]} keys but {v.shape[0]} values")
    weights = _softmax(q @ k.T / np.sqrt(q.shape[1]), axis=-1)
    return weights @ v


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label], computed stably."""
    shifted = logits - np.max(logits)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


def forward(
    net: FusionNet, mm_vec: np.ndarray, kg_vecs: np.ndarray | None
) -> tuple[np.ndarray, ForwardTrace]:
    """Logits for one record plus the cached trace.

    kg_vecs is [n_k, knowledge_dim] with n_k >= 1 when the net uses
    knowledge; it is ignored (and may be None) for the ablation net.
    """
    cfg = net.cfg
    x = np.asarray(mm_vec, dtype=np.float64).reshape(-1)
    if x.shape[0] != cfg.multimodal_dim:
        raise ValueError(
            f"multimodal vec dim {x.shape[0]}, expected {cfg.multimodal_dim}"
        )
    q0 = x @ net.proj_mm_w + net.proj_mm_b

    if not cfg.use_knowledge:
        logits = q0 @ net.cls_w + net.cls_b
        return logits, ForwardTrace(
            mm_vec=x,
            kg_vecs=None,
            q0=q0,
            cls_in=q0,
            logits=logits,
            use_knowledge=False,
        )

    kg = np.asarray(kg_vecs, dtype=np.float64)
    if kg.ndim != 2 or kg.shape[0] < 1 or kg.shape[1] != cfg.knowledge_dim:
        raise ValueError(
            f"knowledge matrix must be [n_k >= 1, {cfg.knowledge_dim}], "
            f"got {kg.shape}"
        )
    kv0 = kg @ net.proj_kg_w + net.proj_kg_b  # [n_k, d]
    q = _einsum("d,hde->he", q0, net.attn_q)
    k = _einsum("nd,hde->hne", kv0, net.attn_k)
    v = _einsum("nd,hde->hne", kv0, net.attn_v)
    scores = _einsum("he,hne->hn", q, k) / np.sqrt(cfg.head_dim)
    attn = _softmax(scores, axis=-1)
    head_out = _einsum("hn,hne->he", attn, v)
    concat = head_out.reshape(cfg.d_model)
    fused = concat @ net.attn_out
    cls_in = fused + q0
    logits = cls_in @ net.cls_w + net.cls_b
    return logits, ForwardTrace(
        mm_vec=x,
        kg_vecs=kg,
        q0=q0,
        cls_in=cls_in,
        logits=logits,
        use_knowledge=True,
        kv0=kv0,
        q=q,
        k=k,
        v=v,
        attn=attn,
        concat=concat,
    )


def backward(net: FusionNet, trace: ForwardTrace, label: int) -> dict[str, np.ndarray]:
    """Gradients of the cross-entropy loss for one record.

    Returns a dict keyed by parameter name plus "mm_vec" and "kg_vecs" for
    the input gradients. The ablation path leaves attention and knowledge
    projection gradients at zero.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    cfg = net.cfg
    g = {name: np.zeros_like(getattr(net, name)) for name in net.PARAM_NAMES}

    p = _softmax(trace.logits)
    dz = p.copy()
    dz[label] -= 1.0

    g["cls_w"] = np.outer(trace.cls_in, dz)
    g["cls_b"] = dz
    d_cls_in = net.cls_w @ dz

    if not trace.use_knowledge:
        d_q0 = d_cls_in
        g["proj_mm_w"] = np.outer(trace.mm_vec, d_q0)
        g["proj_mm_b"] = d_q0
        g["mm_vec"] = net.proj_mm_w @ d_q0
        g["kg_vecs"] = np.zeros((0, cfg.knowledge_dim))
        return g

    d_fused = d_cls_in
    d_q0 = d_cls_in.copy()

    g["attn_out"] = np.outer(trace.concat, d_fused)
    d_concat = net.attn_out @ d_fused
    d_head = d_concat.reshape(cfg.num_heads, cfg.head_dim)

    # Softmax backward: d_scores = A * (dA - sum(A * dA)) per row.
    d_v = _einsum("hn,he->hne", trace.attn, d_head)
    d_attn = _einsum("he,hne->hn", d_head, trace.v)
    inner = np.sum(trace.attn * d_attn, axis=-1, keepdims=True)
    d_scores = trace.attn * (d_attn - inner) / np.sqrt(cfg.head_dim)
    d_q = _einsum("hn,hne->he", d_scores, trace.k)
    d_k = _einsum("hn,he->hne", d_scores, trace.q)

    g["attn_q"] = _einsum("d,he->hde", trace.q0, d_q)
    d_q0 += _einsum("hde,he->d", net.attn_q, d_q)
    g["attn_k"] = _einsum("nd,hne->hde", trace.kv0, d_k)
    d_kv0 = _einsum("hde,hne->nd", net.attn_k, d_k)
    g["attn_v"] = _einsum("nd,hne->hde", trace.kv0, d_v)
    d_kv0 += _einsum("hde,hne->nd", net.attn_v, d_v)

    g["proj_kg_w"] = trace.kg_vecs.T @ d_kv0
    g["proj_kg_b"] = d_kv0.sum(axis=0)
    g["kg_vecs"] = d_kv0 @ net.proj_kg_w.T

    g["proj_mm_w"] = np.outer(trace.mm_vec, d_q0)
    g["proj_mm_b"] = d_q0
    g["mm_vec"] = net.proj_mm_w @ d_q0
    return g
