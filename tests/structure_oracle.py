"""The test oracle of the structure encoder: one graph at a time, one node
at a time. It runs the arithmetic of :func:`matproc.retrieval.embed_structure`
in its plainest form (each graph's own label rows, each node attending
alone in a loop) and pads every product to the same number of rows the
batched path pads it to, so its vectors must equal the batched ones to the
last bit."""

from __future__ import annotations

import numpy as np

from matproc import retrieval as rt
from matproc.canon import canon_label
from matproc.provgraph import ProcessGraph


def attend(z: np.ndarray, neighbours: list[list[int]]) -> np.ndarray:
    """One round's attention over each node's closed neighbourhood, squashed,
    one node at a time."""
    nxt = np.empty_like(z)
    scale = np.sqrt(rt.EMBED_DIM)
    for i, idx in enumerate(neighbours):
        near = z[idx]
        scores = near @ z[i] / scale
        scores -= scores.max()
        att = np.exp(scores)
        att /= att.sum()
        nxt[i] = np.tanh(att @ near)
    return nxt


def project(h: np.ndarray, round_index: int) -> np.ndarray:
    """``h`` through the round's frozen projection, as a product of at least
    ``_MIN_STACKED_ROWS`` rows (zero rows pad a shorter ``h``)."""
    padded = np.zeros((max(len(h), rt._MIN_STACKED_ROWS), rt.EMBED_DIM))
    padded[: len(h)] = h
    return (padded @ rt._frozen_projection(round_index).T)[: len(h)]


def embed_structure_oracle(g: ProcessGraph) -> np.ndarray:
    """The structure vector of ``g`` alone, node by node."""
    nodes, neighbours = rt._neighbourhoods(g)
    if not nodes:
        return np.zeros(rt.EMBED_DIM)
    h = rt.BuiltinTextEmbedder().embed([canon_label(n.label) for n in nodes])
    for round_index in range(2):
        h = attend(project(h, round_index), neighbours)
    pooled = h.mean(axis=0)
    norm = np.linalg.norm(pooled)
    return pooled / norm if norm > 0 else pooled
