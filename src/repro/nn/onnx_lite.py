"""ONNX-like byte serialization for graphs.

Paper Table 2: ``loadModel(cg, cg_size)`` ships a computational graph plus
weights "specified in the ONNX format" into the SSD.  We implement a
self-contained equivalent: a JSON header describing nodes and parameter
tensor metadata, followed by the raw little-endian float32 tensor payload.
The byte size of this blob is what the DeepStore runtime charges when
modelling host->SSD model transfer time.

Format::

    MAGIC (8 bytes) | header_len (uint32 LE) | header JSON | tensor payload
"""

from __future__ import annotations

import json
import struct
from typing import List

import numpy as np

from repro.nn.graph import Graph
from repro.nn.layers import OP_REGISTRY

MAGIC = b"DSONNX01"


class SerializationError(ValueError):
    """Raised for malformed model blobs."""


def graph_to_bytes(graph: Graph) -> bytes:
    """Serialize ``graph`` (topology + parameters) to bytes."""
    node_specs = []
    tensor_meta: List[dict] = []
    payload_parts: List[bytes] = []
    offset = 0
    for node in graph.nodes:
        node_specs.append(
            {
                "id": node.node_id,
                "op": type(node.op).__name__,
                "inputs": list(node.inputs),
                "name": node.name,
                "config": node.op.config(),
            }
        )
        for key, tensor in sorted(graph.params.get(node.node_id, {}).items()):
            data = np.ascontiguousarray(tensor, dtype=np.float32).tobytes()
            tensor_meta.append(
                {
                    "node": node.node_id,
                    "key": key,
                    "shape": list(tensor.shape),
                    "offset": offset,
                    "nbytes": len(data),
                }
            )
            payload_parts.append(data)
            offset += len(data)
    header = json.dumps(
        {
            "name": graph.name,
            "output": graph.output_id,
            "nodes": node_specs,
            "tensors": tensor_meta,
        }
    ).encode("utf-8")
    return MAGIC + struct.pack("<I", len(header)) + header + b"".join(payload_parts)


def graph_from_bytes(blob: bytes) -> Graph:
    """Reconstruct a :class:`Graph` from :func:`graph_to_bytes` output."""
    if len(blob) < len(MAGIC) + 4 or blob[: len(MAGIC)] != MAGIC:
        raise SerializationError("not a DeepStore model blob")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if header_end > len(blob):
        raise SerializationError("truncated model header")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"bad model header: {exc}") from exc

    graph = Graph(header.get("name", "graph"))
    for spec in header["nodes"]:
        op_cls = OP_REGISTRY.get(spec["op"])
        if op_cls is None:
            raise SerializationError(f"unknown op {spec['op']!r}")
        op = op_cls(**spec["config"])
        got = graph.add(op, spec["inputs"], name=spec.get("name", ""))
        if got != spec["id"]:
            raise SerializationError("node ids are not dense/topological")
    graph.set_output(header["output"])

    payload = blob[header_end:]
    for meta in header["tensors"]:
        start, nbytes = meta["offset"], meta["nbytes"]
        if start + nbytes > len(payload):
            raise SerializationError("truncated tensor payload")
        tensor = np.frombuffer(payload[start : start + nbytes], dtype=np.float32)
        tensor = tensor.reshape(meta["shape"]).copy()
        graph.params.setdefault(meta["node"], {})[meta["key"]] = tensor
    return graph
