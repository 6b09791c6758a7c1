"""Property-based tests for the stable graph content hash.

The fingerprint is the serving cache's identity, so the properties that
matter are exactly the cache's correctness conditions: equal content
hashes equal (regardless of construction order), different content hashes
different (any field the simulator reads must be covered), and the value
must be reproducible across runs and processes (no dependence on
Python's salted ``hash()``).
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import document_fingerprint, graph_from_dict, graph_to_dict

from tests.property.test_graph_io_properties import random_graph


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_roundtrip_preserves_fingerprint(g):
    assert graph_from_dict(graph_to_dict(g)).fingerprint() == g.fingerprint()


@given(random_graph(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_document_order_invariance(g, rnd):
    """Shuffling edge order and node attribute order must not change the
    hash (node order stays topological so the document remains loadable)."""
    doc = graph_to_dict(g)
    rnd.shuffle(doc["edges"])
    doc["nodes"] = [
        dict(sorted(n.items(), key=lambda _: rnd.random())) for n in doc["nodes"]
    ]
    assert graph_from_dict(doc).fingerprint() == g.fingerprint()


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_stability(g):
    """A graph serialized to JSON text and back hashes identically — what
    the HTTP layer does to every inline graph document."""
    doc = json.loads(json.dumps(graph_to_dict(g)))
    assert graph_from_dict(doc).fingerprint() == g.fingerprint()


@given(random_graph(), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_field_sensitivity(g, salt):
    """Perturbing any simulator-visible node field changes the hash."""
    base = g.fingerprint()
    doc = graph_to_dict(g)
    node = doc["nodes"][salt % len(doc["nodes"])]
    field = ["flops", "param_bytes", "activation_bytes"][salt % 3]
    node[field] = node[field] + 1.0
    assert graph_from_dict(doc).fingerprint() != base


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_fingerprint_is_canonical_hex(g):
    fp = g.fingerprint()
    assert len(fp) == 64 and int(fp, 16) >= 0
    assert fp == g.fingerprint()  # pure: no hidden mutable state


@st.composite
def graph_document(draw):
    """A loadable graph document as a client might write it: optional
    node fields omitted, integral costs and shapes as JSON numbers of
    either kind, extra keys, repeated edges, the graph name omitted."""
    doc = graph_to_dict(draw(random_graph()))
    for node in doc["nodes"]:
        for key in ("output_shape", "flops", "param_bytes", "activation_bytes",
                    "cpu_only", "colocation_group"):
            if draw(st.integers(0, 3)) == 0:
                del node[key]
        for key in ("flops", "param_bytes", "activation_bytes"):
            if key in node and draw(st.booleans()):
                node[key] = int(node[key])
        if "output_shape" in node and draw(st.booleans()):
            node["output_shape"] = [float(s) for s in node["output_shape"]]
        if draw(st.booleans()):
            node["comment"] = draw(st.text(max_size=5))
    if doc["edges"] and draw(st.booleans()):
        doc["edges"].append(list(doc["edges"][0]))
    if not doc["edges"] and draw(st.booleans()):
        del doc["edges"]
    if draw(st.booleans()):
        del doc["name"]
    if draw(st.booleans()):
        doc["source"] = "tracer"
    return doc


@given(graph_document())
@settings(max_examples=80, deadline=None)
def test_document_fingerprint_equals_built_graph_fingerprint(doc):
    """Hashing a document is hashing the graph it describes: the serving
    cache keys requests by the first and placements are computed from
    the second."""
    fingerprint, name = document_fingerprint(doc)
    graph = graph_from_dict(doc)
    assert fingerprint == graph.fingerprint()
    assert name == graph.name
    assert document_fingerprint(json.loads(json.dumps(doc))) == (fingerprint, name)
