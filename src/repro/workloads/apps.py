"""The five intelligent-query applications.

Layer shapes are reverse-engineered from Table 1's aggregate numbers
(feature size, layer-class counts, total FLOPs, total weight bytes) and
the architectural descriptions in the source papers — e.g. TIR's SCN "
consists of a vector dot product and three fully connected layers with
sizes of 512x512, 512x256, 256x2" (paper §3), and TextQA's bilinear
``q^T M d`` similarity from Severyn & Moschitti.  Tests assert each app
matches its Table-1 row within 10%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.nn import Graph, GraphBuilder

KB = 1024


@dataclass(frozen=True)
class Table1Row:
    """Published per-application characteristics (paper Table 1)."""

    feature_kb: float
    conv_layers: int
    fc_layers: int
    elementwise_layers: int
    total_flops: float
    weight_bytes: float
    dataset: str


@dataclass(frozen=True)
class AppSpec:
    """One intelligent-query application."""

    name: str
    full_name: str
    modality: str
    description: str
    feature_shape: Tuple[int, ...]
    #: builds the SCN topology and initializes its weights at a seed
    scn_builder: Callable[[int], Graph]
    table1: Table1Row
    #: Fig. 2 batch-size sweep for the GPU+SSD characterization
    fig2_batches: Tuple[int, ...]
    #: batch size used in the §6.2 evaluation ("GPU utilization maximized")
    eval_batch: int
    #: accuracy of the app's query comparison network (Algorithm 1's
    #: QCN_Acc); the paper uses the Universal Sentence Encoder's test
    #: accuracy for TIR and the app model's own accuracy otherwise
    qcn_accuracy: float = 0.92

    @property
    def feature_floats(self) -> int:
        n = 1
        for s in self.feature_shape:
            n *= s
        return n

    @property
    def feature_bytes(self) -> int:
        return self.feature_floats * 4

    def build_scn(self, seed: int = 0) -> Graph:
        """A freshly initialized similarity comparison network."""
        return self.scn_builder(seed)

    def build_qcn(self, seed: int = 0) -> Graph:
        """Query comparison network for the query cache.

        The paper states the QCN "structure is similar to the SCN" (§4.6)
        — it compares two *query* feature vectors instead of a query and a
        database vector, so the same two-branch topology applies.
        """
        graph = self.scn_builder(seed + 1)
        graph.name = f"{self.name}-qcn"
        return graph


# ----------------------------------------------------------------------
# SCN builders
# ----------------------------------------------------------------------
def _build_reid(seed: int) -> Graph:
    """Person re-identification (Ahmed et al. CVPR'15 comparison stage).

    Cross-input difference over 44 KB spatial features, two convolutional
    summary layers, and a two-layer classifier head.
    """
    b = GraphBuilder("reid-scn")
    q = b.input((11, 32, 32), "qfv")
    d = b.input((11, 32, 32), "dfv")
    h = b.elementwise(q, d, "absdiff", name="cross_diff")
    h = b.conv2d(h, 16, kernel=3, padding=1, activation="relu", name="conv1")
    h = b.conv2d(h, 16, kernel=3, stride=2, padding=1, activation="relu", name="conv2")
    h = b.flatten(h)
    h = b.dense(h, 640, activation="relu", name="fc1")
    h = b.dense(h, 2, name="fc2")
    out = b.score_head(h, "sigmoid_diff")
    return b.build(out, seed=seed)


def _build_mir(seed: int) -> Graph:
    """Music information retrieval (Lu et al. triplet MatchNet)."""
    b = GraphBuilder("mir-scn")
    q = b.input((512,), "qfv")
    d = b.input((512,), "dfv")
    h = b.concat(q, d)
    h = b.dense(h, 400, activation="relu", name="fc1")
    h = b.dense(h, 280, activation="relu", name="fc2")
    h = b.dense(h, 2, name="fc3")
    out = b.score_head(h, "sigmoid_diff")
    return b.build(out, seed=seed)


def _build_estp(seed: int) -> Graph:
    """Exact Street-to-Shop garment matching (Kiapour et al. ICCV'15)."""
    b = GraphBuilder("estp-scn")
    q = b.input((4096,), "qfv")
    d = b.input((4096,), "dfv")
    h = b.concat(q, d)
    h = b.dense(h, 250, activation="relu", name="fc1")
    h = b.dense(h, 1176, activation="relu", name="fc2")
    h = b.dense(h, 2, name="fc3")
    out = b.score_head(h, "sigmoid_diff")
    return b.build(out, seed=seed)


def _build_tir(seed: int) -> Graph:
    """Text-based image retrieval (Wang et al. two-branch network).

    Element-wise product of the embedded branches followed by FC layers of
    512x512, 512x256 and 256x2 — the shapes paper §3 quotes.
    """
    b = GraphBuilder("tir-scn")
    q = b.input((512,), "qfv")
    d = b.input((512,), "dfv")
    h = b.elementwise(q, d, "mul", name="gate")
    h = b.dense(h, 512, activation="relu", name="fc1")
    h = b.dense(h, 256, activation="relu", name="fc2")
    h = b.dense(h, 2, name="fc3")
    out = b.score_head(h, "sigmoid_diff")
    return b.build(out, seed=seed)


def _build_textqa(seed: int) -> Graph:
    """Short-text QA reranking (Severyn & Moschitti SIGIR'15).

    Bilinear similarity ``q^T M d``: one 200x200 FC applied to the answer
    embedding, then a dot product with the question embedding.
    """
    b = GraphBuilder("textqa-scn")
    q = b.input((200,), "qfv")
    d = b.input((200,), "dfv")
    h = b.dense(d, 200, bias=False, name="bilinear")
    h = b.dot(q, h, name="match")
    out = b.score_head(h, "sigmoid", affine=True)
    return b.build(out, seed=seed)


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------
ALL_APPS: Dict[str, AppSpec] = {
    "reid": AppSpec(
        name="reid",
        full_name="Person Re-Identification (ReId)",
        modality="visual",
        description="Identify the same person across a database of stored images",
        feature_shape=(11, 32, 32),
        scn_builder=_build_reid,
        table1=Table1Row(44, 2, 2, 1, 9.8e6, 10.7 * 1e6 * 1.048576, "CUHK03"),
        fig2_batches=(500, 1000, 1500, 2000),
        eval_batch=2000,
        qcn_accuracy=0.90,
    ),
    "mir": AppSpec(
        name="mir",
        full_name="Music Information Retrieval (MIR)",
        modality="audio",
        description="Retrieve music based on styles and instrumentations",
        feature_shape=(512,),
        scn_builder=_build_mir,
        table1=Table1Row(2, 0, 3, 0, 1.05e6, 2 * 1e6 * 1.048576, "MagnaTagTune"),
        fig2_batches=(5000, 10000, 20000, 50000),
        eval_batch=50000,
        qcn_accuracy=0.91,
    ),
    "estp": AppSpec(
        name="estp",
        full_name="Exact Street to Shop (ESTP)",
        modality="visual",
        description="Online shopping of a garment item using a real-world photo",
        feature_shape=(4096,),
        scn_builder=_build_estp,
        table1=Table1Row(16, 0, 3, 0, 4.72e6, 9 * 1e6 * 1.048576, "Street2Shop"),
        fig2_batches=(5000, 10000, 20000, 50000),
        eval_batch=50000,
        qcn_accuracy=0.90,
    ),
    "tir": AppSpec(
        name="tir",
        full_name="Text-based Image Retrieval (TIR)",
        modality="text/image",
        description="Retrieve images matching a sentence-level description",
        feature_shape=(512,),
        scn_builder=_build_tir,
        table1=Table1Row(
            2, 0, 3, 1, 0.79e6, 1.5 * 1e6 * 1.048576, "MSCOCO, Flickr30K"
        ),
        fig2_batches=(5000, 10000, 20000, 50000),
        eval_batch=50000,
        qcn_accuracy=0.92,
    ),
    "textqa": AppSpec(
        name="textqa",
        full_name="Question and Answer (TextQA)",
        modality="text",
        description="Rerank short text pairs closely related to a given query",
        feature_shape=(200,),
        scn_builder=_build_textqa,
        table1=Table1Row(0.8, 0, 1, 1, 0.08e6, 0.16 * 1e6 * 1.048576, "TREC QA"),
        fig2_batches=(10000, 20000, 50000, 100000),
        eval_batch=100000,
        qcn_accuracy=0.93,
    ),
}

APP_NAMES: List[str] = list(ALL_APPS.keys())


def get_app(name: str) -> AppSpec:
    """Look up an application by short name (case-insensitive)."""
    key = name.lower()
    if key not in ALL_APPS:
        raise KeyError(f"unknown app {name!r}; choose from {APP_NAMES}")
    return ALL_APPS[key]
