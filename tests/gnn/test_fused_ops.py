"""The fused GCN encoder op and the fused DGI objective.

Each is held to a composed tensor-op reference (``composed_gcn`` and
``composed_dgi_loss`` in ``tests/helpers.py``): forward values bit-equal,
gradients within 1e-10 of their norm. Both are also checked against
central differences at the encoder's real shapes (width 48, Inception-V3
at ``scale=0.25``), on a 1-op graph and on an edgeless graph. The
encoder op over two stacked views is held to two one-view passes bit for
bit, values and per-parameter gradients.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.gnn import DGI, GCNEncoder, GraphSAGEEncoder
from repro.gnn.dgi import dgi_objective, two_view_adjacency
from repro.gnn.gcn import prelu, stack_views
from repro.graph import (
    CompGraph,
    FeatureExtractor,
    OpNode,
    adjacency_matrix,
    normalized_adjacency,
)
from repro.nn import Parameter, Tensor, no_grad
from repro.workloads import get_workload
from tests.helpers import composed_dgi_loss, composed_gcn

WIDTH = 48
GRAD_RTOL = 1e-10


def _one_op_graph():
    g = CompGraph("one-op")
    g.add_node(OpNode("in", "Input", (4, 8), cpu_only=True))
    return g


def _edgeless_graph():
    g = CompGraph("edgeless")
    for i in range(5):
        g.add_node(OpNode(f"op{i}", "MatMul", (4, 8 + i)))
    return g


GRAPHS = {
    "inception_v3": lambda: get_workload("inception_v3", scale=0.25),
    "one_op": _one_op_graph,
    "edgeless": _edgeless_graph,
}


@pytest.fixture(scope="module", params=list(GRAPHS))
def graph_data(request):
    g = GRAPHS[request.param]()
    return request.param, FeatureExtractor()(g), normalized_adjacency(g)


def _assert_grads_close(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= GRAD_RTOL * np.linalg.norm(b)


def _numeric_check(loss_fn, tensors, n_dirs, eps=1e-6, rtol=1e-6):
    """Central differences of ``loss_fn()`` against its autodiff gradient.

    Each tensor is probed along every unit vector when ``n_dirs`` is
    ``None``, otherwise along ``n_dirs`` seeded random unit directions.
    """
    for t in tensors:
        t.grad = None
    loss_fn().backward()
    grads = [t.grad.copy() for t in tensors]
    dir_rng = np.random.default_rng(3)
    for t, grad in zip(tensors, grads):
        base = t.data.copy()
        if n_dirs is None:
            dirs = np.eye(base.size).reshape((base.size,) + base.shape)
        else:
            dirs = dir_rng.standard_normal((n_dirs,) + base.shape)
            dirs /= np.linalg.norm(dirs.reshape(n_dirs, -1), axis=1).reshape(
                (n_dirs,) + (1,) * base.ndim
            )
        for d in dirs:
            values = []
            for sign in (1.0, -1.0):
                t.data = base + sign * eps * d
                with no_grad():
                    values.append(loss_fn().item())
            t.data = base
            num = (values[0] - values[1]) / (2 * eps)
            ana = float((grad * d).sum())
            assert abs(num - ana) <= rtol * (1.0 + abs(ana)), (num, ana)


@contextmanager
def _count_nodes():
    """Count the tape nodes built inside the block."""
    made = []
    make = Tensor._make

    def counting_make(*args):
        out = make(*args)
        if out.requires_grad:
            made.append(out)
        return out

    Tensor._make = staticmethod(counting_make)
    try:
        yield made
    finally:
        Tensor._make = staticmethod(make)


class TestEncoderOp:
    def _run(self, forward, enc, x0, adj, r):
        x = Tensor(x0, requires_grad=True)
        enc.zero_grad()
        out = forward(x)
        (out * r).sum().backward()
        return out.data, [x.grad] + [p.grad for p in enc.parameters()]

    def test_matches_composed_reference(self, graph_data):
        _, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=0)
        r = np.random.default_rng(1).standard_normal((len(x0), WIDTH))
        fused_out, fused_grads = self._run(lambda x: enc(x, adj), enc, x0, adj, r)
        ref_out, ref_grads = self._run(
            lambda x: composed_gcn(enc.layers, x, adj), enc, x0, adj, r
        )
        assert np.array_equal(fused_out, ref_out)
        _assert_grads_close(fused_grads, ref_grads)

    def test_layer_matches_composed_reference(self, graph_data):
        _, x0, adj = graph_data
        layer = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, num_layers=1, rng=2).layers[0]
        r = np.random.default_rng(3).standard_normal((len(x0), WIDTH))
        fused_out, fused_grads = self._run(lambda x: layer(x, adj), layer, x0, adj, r)
        ref_out, ref_grads = self._run(
            lambda x: composed_gcn([layer], x, adj), layer, x0, adj, r
        )
        assert np.array_equal(fused_out, ref_out)
        _assert_grads_close(fused_grads, ref_grads)

    def test_given_transpose_changes_nothing(self, graph_data):
        _, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=4)
        r = np.random.default_rng(5).standard_normal((len(x0), WIDTH))
        adj_t = adj.T.tocsr()
        built = self._run(lambda x: enc(x, adj), enc, x0, adj, r)
        given = self._run(lambda x: enc(x, adj, adj_t=adj_t), enc, x0, adj, r)
        assert np.array_equal(built[0], given[0])
        for a, b in zip(built[1], given[1]):
            assert np.array_equal(a, b)

    def test_gradcheck(self, graph_data):
        name, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=6)
        r = np.random.default_rng(7).standard_normal((len(x0), WIDTH))
        x = Tensor(x0, requires_grad=True)
        n_dirs = None if name == "one_op" else 4
        _numeric_check(lambda: (enc(x, adj) * r).sum(), [x] + enc.parameters(), n_dirs)

    def test_one_node_per_pass(self, graph_data):
        _, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=8)
        x = Tensor(x0, requires_grad=True)
        with _count_nodes() as made:
            out = enc(x, adj)
        assert made == [out]
        assert out._parents == (x, *enc.parameters())

    def test_no_grad_builds_no_tape(self, graph_data):
        _, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=9)
        with no_grad(), _count_nodes() as made:
            out = enc(x0, adj)
        assert made == [] and not out.requires_grad


def test_prelu_matches_masked_selects():
    """The select-free PReLU against the composed ops' selects: the same
    bits for signed zeros, subnormals, infinities and finite values, for
    both slope signs; a NaN now stays NaN."""
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf])
    a0 = np.concatenate([special, np.random.default_rng(24).standard_normal(301) * 50.0])
    for slope in (np.asarray(0.25), np.asarray(-1.5)):
        pos, neg_mask = a0 > 0, a0 < 0
        neg = np.where(neg_mask, a0, -0.0)
        want = np.where(pos, a0, 0.0) + neg * slope
        out, masks = prelu(a0.copy(), slope)
        assert out.tobytes() == want.tobytes()
        for got, ref in zip(masks, (pos, neg_mask, neg)):
            assert got.tobytes() == ref.tobytes()
    out, _ = prelu(np.array([np.nan, 1.0]), np.asarray(0.25))
    assert np.isnan(out[0]) and out[1] == 1.0


class TestStackedViews:
    """``gcn_op`` over two stacked views against one pass per view."""

    def _views(self, x0):
        perm = np.random.default_rng(21).permutation(len(x0))
        return x0, x0[perm] + 0.5

    def _seed_grads(self, enc):
        """A gradient already held by every parameter, so the order in
        which the two views' shares are added shows in the bits."""
        seed = np.random.default_rng(24)
        for p in enc.parameters():
            p.grad = seed.standard_normal(p.shape) * 1e3

    def test_matches_one_pass_per_view(self, graph_data):
        _, x0, adj = graph_data
        enc = GCNEncoder(x0.shape[1], hidden_dim=WIDTH, rng=22)
        views = self._views(x0)
        r = np.random.default_rng(23).standard_normal((2, len(x0), WIDTH))

        self._seed_grads(enc)
        xs = [Tensor(v, requires_grad=True) for v in views]
        outs = [enc(x, adj) for x in xs]
        sum((out * rv).sum() for out, rv in zip(outs, r)).backward()
        want_params = [p.grad.copy() for p in enc.parameters()]

        self._seed_grads(enc)
        pair, pair_t = two_view_adjacency(adj)
        x = Tensor(np.concatenate(views), requires_grad=True)
        out = enc(x, pair, adj_t=pair_t, views=2)
        (out * np.concatenate(r)).sum().backward()

        n = len(x0)
        for got, want in ((out.data[:n], outs[0].data), (out.data[n:], outs[1].data)):
            assert np.array_equal(got, want)
        for got, want in ((x.grad[:n], xs[0].grad), (x.grad[n:], xs[1].grad)):
            assert np.array_equal(got, want)
        for p, want in zip(enc.parameters(), want_params):
            assert np.array_equal(p.grad, want)

    def test_stacked_adjacency_is_block_diagonal(self, graph_data):
        _, _, adj = graph_data
        n = adj.shape[0]
        pair = stack_views(adj, 3)
        assert pair.shape == (3 * n, 3 * n) and pair.nnz == 3 * adj.nnz
        dense = adj.toarray()
        want = np.kron(np.eye(3), dense)
        assert np.array_equal(pair.toarray(), want)


class TestDGIObjective:
    def _run(self, loss_fn, dgi):
        dgi.zero_grad()
        loss = loss_fn()
        loss.backward()
        return loss.item(), [p.grad for p in dgi.parameters()]

    def test_loss_matches_composed_reference(self, graph_data):
        _, x, adj = graph_data
        dgi = DGI(GCNEncoder(x.shape[1], hidden_dim=WIDTH, rng=10), rng=11)
        views_adj = two_view_adjacency(adj)
        fused_loss, fused_grads = self._run(
            lambda: dgi.loss(x, adj, np.random.default_rng(12), views_adj=views_adj), dgi
        )
        ref_loss, ref_grads = self._run(
            lambda: composed_dgi_loss(dgi, x, adj, np.random.default_rng(12)), dgi
        )
        assert fused_loss.hex() == ref_loss.hex()
        _assert_grads_close(fused_grads, ref_grads)

    def test_gradcheck(self, graph_data):
        name, x, adj = graph_data
        enc = GCNEncoder(x.shape[1], hidden_dim=WIDTH, rng=13)
        with no_grad():
            h = enc(x, adj).data
        rng = np.random.default_rng(14)
        views = np.concatenate((h, h[rng.permutation(len(h))] + 0.1))
        h_views = Tensor(views, requires_grad=True)
        w = Parameter(0.2 * rng.standard_normal((WIDTH, WIDTH)))
        n_dirs = None if name == "one_op" else 4
        _numeric_check(lambda: dgi_objective(h_views, w), [h_views, w], n_dirs)

    def test_graphsage_matches_composed_reference(self, graph_data):
        name, x, _ = graph_data
        adj = adjacency_matrix(GRAPHS[name]())
        dgi = DGI(GraphSAGEEncoder(x.shape[1], hidden_dim=WIDTH, rng=18), rng=19)
        fused_loss, fused_grads = self._run(
            lambda: dgi.loss(x, adj, np.random.default_rng(20)), dgi
        )
        ref_loss, ref_grads = self._run(
            lambda: composed_dgi_loss(dgi, x, adj, np.random.default_rng(20)), dgi
        )
        assert abs(fused_loss - ref_loss) <= GRAD_RTOL * abs(ref_loss)
        _assert_grads_close(fused_grads, ref_grads)

    def test_two_nodes_per_iteration(self):
        g = GRAPHS["inception_v3"]()
        x, adj = FeatureExtractor()(g), normalized_adjacency(g)
        dgi = DGI(GCNEncoder(x.shape[1], hidden_dim=WIDTH, rng=15), rng=16)
        with _count_nodes() as fused:
            loss = dgi.loss(x, adj, np.random.default_rng(17))
        with _count_nodes() as composed:
            composed_dgi_loss(dgi, x, adj, np.random.default_rng(17))
        assert len(fused) == 2 and fused[-1] is loss
        assert len(composed) == 74
        (encoded,) = fused[:-1]
        assert encoded.shape == (2 * len(x), WIDTH)
