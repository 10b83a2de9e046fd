"""Non-rigid registration: alignment, deformation graph, energy, solver."""
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from _util import GRAPH_KEYS
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import dijkstra, reverse_cuthill_mckee
from scipy.spatial import cKDTree

from limbscan import registration
from limbscan.errors import (DegenerateConfiguration, DegenerateSegment, InvalidParams,
                             OutOfBindingReach)
from limbscan.geometry import PointCloud3, RigidTransform
from limbscan.pipeline import RegistrationConfig, register_atlas
from limbscan.registration import (ArmObservation, DeformationGraph,
                                   SolveParams, _affines, _BandedNormalEquations,
                                   _pack, _ResidualMap, _rigidity_jacobians,
                                   _unpack, attach_probe_poses, build_graph, energy,
                                   initial_align, solve, transfer_trajectory, welsch)
from limbscan.scene import hinge_points
from limbscan.trajectory import ScanTrajectory

UP = np.array([0.0, 0.0, 1.0])


def _observation(arm) -> ArmObservation:
    cloud, axial, _ = arm.top_shell()
    fm = axial <= arm.elbow_axial
    return ArmObservation(PointCloud3(cloud.points[fm]),
                          PointCloud3(cloud.points[~fm]),
                          arm.wrist, arm.elbow, arm.shoulder)


def _identity_graph(points, radius=15.0):
    g = build_graph(points, radius)
    return g


def _line_cloud(n=400, step=0.5):
    pts = np.zeros((n, 3))
    pts[:, 0] = np.arange(n) * step
    return pts


def _perturbed_graph(rng, n=300, radius=8.0):
    """A graph on a flat slab with random non-identity node maps."""
    pts = rng.uniform(0.0, 60.0, (n, 3)) * np.array([1.0, 0.4, 0.1])
    g = build_graph(pts, radius)
    g.affines = g.affines + rng.normal(scale=0.05, size=g.affines.shape)
    g.translations = rng.normal(scale=0.5, size=g.translations.shape)
    return g, pts, pts + rng.normal(scale=0.3, size=pts.shape)


def _reference_weights(cd, found, d_max):
    """Convex weights (1 - d / d_max)^2 over each row's found candidates,
    uniform where they all vanish."""
    w = np.where(found, np.maximum(1.0 - cd / d_max[:, None], 0.0) ** 2, 0.0)
    flat = w.sum(axis=1) <= 0
    w[flat] = found[flat]
    return w / w.sum(axis=1, keepdims=True)


def _build_graph_k(points, radius, binding_k):
    """`build_graph` with each vertex bound to up to binding_k nodes."""
    with mock.patch.object(registration, "BINDING_K", binding_k):
        return build_graph(points, radius)


def _reference_build_graph(points, radius, binding_k=registration.BINDING_K):
    """`build_graph` as a per-node merge: after each node's search, every
    vertex it reached re-sorts its binding_k + 1 nearest nodes so far."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(p)
    k_eff = min(registration.KNN_K + 1, n)
    d, idx = cKDTree(p).query(p, k=[*range(1, k_eff + 1)])
    # each k-NN edge both ways, zero-length ones (coincident points) included
    edges = {}
    for v in range(n):
        for u, dist in zip(idx[v, 1:].tolist(), d[v, 1:].tolist()):
            edges[v, u] = edges[u, v] = dist
    rows, cols = zip(*edges) if edges else ((), ())
    graph = sp.csr_matrix((list(edges.values()), (rows, cols)), shape=(n, n))
    reach = 2.0 * radius
    min_dist = np.full(n, np.inf)
    near_d = np.full((n, binding_k + 1), np.inf)
    near_i = np.full((n, binding_k + 1), -1)
    node_vertices, reached = [], []
    for v in range(n):
        if min_dist[v] <= radius:
            continue
        dist = dijkstra(graph, indices=v, limit=reach)
        np.minimum(min_dist, dist, out=min_dist)
        rows = np.flatnonzero(dist < near_d[:, -1])
        cand_d = np.hstack([near_d[rows], dist[rows, None]])
        cand_i = np.hstack([near_i[rows], np.full((len(rows), 1), len(node_vertices))])
        order = np.argsort(cand_d, axis=1, kind="stable")[:, :-1]
        near_d[rows] = np.take_along_axis(cand_d, order, axis=1)
        near_i[rows] = np.take_along_axis(cand_i, order, axis=1)
        node_vertices.append(v)
        reached.append(np.flatnonzero(np.isfinite(dist)))
    m = len(node_vertices)
    adj = np.zeros((m, m), dtype=bool)
    for i, r in enumerate(reached):
        adj[i] = np.isin(node_vertices, r)
    adj |= adj.T
    np.fill_diagonal(adj, False)
    k = min(binding_k, m)
    cd = near_d[:, :k]
    found = np.isfinite(cd)
    n_cand = found.sum(axis=1)
    next_d = near_d[:, k]
    last_d = cd[np.arange(n), n_cand - 1]
    d_max = np.where(np.isfinite(next_d), next_d,
                     np.where(n_cand > 1, np.maximum(1.1 * last_d, 1e-12), max(reach, 1e-12)))
    return (p[node_vertices], [np.flatnonzero(row).tolist() for row in adj],
            np.where(found, near_i[:, :k], -1),
            _reference_weights(cd, found, d_max))


def _reference_bind(graph, points):
    """`DeformationGraph.bind` with its own padding: a k-d tree query of
    min(K + 1, nodes) neighbours, padded to K + 1 columns at inf."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    k = registration.BINDING_K
    k_eff = min(k + 1, graph.n_nodes)
    d, idx = cKDTree(graph.node_positions).query(p, k=k_eff)
    d = np.pad(d.reshape(len(p), k_eff), ((0, 0), (0, k + 1 - k_eff)),
               constant_values=np.inf)
    idx = np.pad(idx.reshape(len(p), k_eff), ((0, 0), (0, k + 1 - k_eff)))
    found = d[:, :k] <= 2.0 * graph.sampling_radius
    rows, n_cand = np.arange(len(p)), found.sum(axis=1)
    d_max = np.where(np.isfinite(d[rows, n_cand]), d[rows, n_cand],
                     1.1 * np.maximum(d[rows, n_cand - 1], 1e-12))
    return np.where(found, idx[:, :k], -1), _reference_weights(d[:, :k], found, d_max)


def _lattice(n):
    axes = np.meshgrid(np.arange(n), np.arange(n), np.arange(3), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3).astype(float)


def _graph_cases():
    rng = np.random.default_rng(7)
    slab = rng.uniform(0.0, 60.0, (300, 3)) * np.array([1.0, 0.4, 0.1])
    for k in range(1, 8):
        yield f"slab-k{k}", slab, 8.0, k
        yield f"small-k{k}", rng.uniform(0.0, 20.0, (50, 3)), 3.0, k
    blob = rng.uniform(0.0, 10.0, (80, 3))
    yield "two-clusters", np.vstack([blob, blob[::-1] + 500.0]), 4.0, 4
    yield "one-point", np.array([[1.0, 2.0, 3.0]]), 5.0, 4
    yield "five-identical", np.ones((5, 3)), 5.0, 4
    yield "five-identical-k1", np.ones((5, 3)), 5.0, 1
    for radius in (1.0, 1.5, 2.0, 3.0):
        for k in (1, 4, 6):
            yield f"lattice-r{radius:g}-k{k}", _lattice(12), radius, k
    yield "fewer-nodes-than-k", rng.uniform(0.0, 3.0, (30, 3)), 50.0, 6
    yield "line", _line_cloud(), 10.0, 4


def _assert_graph_equal(g, ref):
    positions, neighbors, bind_idx, bind_w = ref
    assert np.array_equal(g.node_positions, positions)
    assert g.neighbors == neighbors
    assert np.array_equal(g.bind_idx, bind_idx) and g.bind_idx.dtype == bind_idx.dtype
    assert np.array_equal(g.bind_w, bind_w)


class TestWelsch:
    def test_zero_is_zero(self):
        assert welsch(np.array([0.0]), 5.0)[0] == 0.0

    def test_saturates_at_c_squared(self):
        assert welsch(np.array([1e9]), 5.0)[0] == pytest.approx(25.0)

    def test_monotone(self, rng):
        s = np.sort(rng.uniform(0.0, 100.0, 50))
        v = welsch(s, 5.0)
        assert np.all(np.diff(v) >= 0)


class TestBuildGraph:
    def test_node_separation_on_line(self):
        pts = _line_cloud()
        g = build_graph(pts, radius=10.0)
        d = np.abs(g.node_positions[:, 0][:, None] - g.node_positions[:, 0])
        np.fill_diagonal(d, np.inf)
        assert d.min() > 10.0

    def test_every_vertex_covered(self):
        pts = _line_cloud()
        g = build_graph(pts, radius=10.0)
        dmin, _ = cKDTree(g.node_positions).query(pts)
        assert dmin.max() <= 10.0 + 1e-9

    def test_bindings_convex(self):
        g = build_graph(_line_cloud(), radius=10.0)
        sums = g.bind_w.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        assert np.all(g.bind_w >= 0.0)
        assert np.all((g.bind_idx >= -1) & (g.bind_idx < g.n_nodes))

    def test_neighbors_symmetric(self):
        g = build_graph(_line_cloud(), radius=10.0)
        for i, nb in enumerate(g.neighbors):
            for j in nb:
                assert i in g.neighbors[j]

    def test_neighbor_reach_is_twice_radius(self):
        g = build_graph(_line_cloud(), radius=10.0)
        x = g.node_positions[:, 0]
        for i, nb in enumerate(g.neighbors):
            for j in nb:
                assert abs(x[i] - x[j]) <= 20.0 + 1e-9

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            build_graph(_line_cloud(), radius=0.0)

    @pytest.mark.parametrize("radius", [float("inf"), float("nan")])
    def test_rejects_non_finite_radius(self, radius):
        with pytest.raises(InvalidParams, match="radius must be finite"):
            build_graph(_line_cloud(), radius=radius)

    @pytest.mark.parametrize("points", [np.zeros((0, 3)), np.zeros(0), np.zeros((4, 2))],
                             ids=["no-rows", "flat-empty", "two-columns"])
    def test_rejects_empty_or_malformed_points(self, points):
        with pytest.raises(InvalidParams):
            build_graph(points, radius=5.0)

    @pytest.mark.parametrize("points, radius, binding_k",
                             [pytest.param(*case, id=name) for name, *case in _graph_cases()])
    def test_matches_per_node_merge(self, points, radius, binding_k):
        _assert_graph_equal(_build_graph_k(points, radius, binding_k),
                            _reference_build_graph(points, radius, binding_k))

    def test_matches_per_node_merge_on_aligned_atlas(self, atlas, scene_cache):
        posed, _, seg = scene_cache(140.0)
        target = ArmObservation(seg.forearm, seg.upperarm, posed.wrist, posed.elbow,
                                posed.shoulder)
        pts = initial_align(_observation(atlas), target)[0].union_points()
        _assert_graph_equal(build_graph(pts, 8.0), _reference_build_graph(pts, 8.0))

    @settings(max_examples=40, deadline=None)
    @given(cells=st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=1,
                          max_size=60, unique=True),
           radius=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
           binding_k=st.integers(1, 6))
    def test_every_vertex_binds_and_nodes_bind_to_themselves(self, cells, radius,
                                                              binding_k):
        pts = np.array(cells, dtype=float)
        g = _build_graph_k(pts, radius, binding_k)
        assert np.all(g.bind_idx[:, 0] >= 0) and np.all(np.isfinite(g.bind_w))
        np.testing.assert_allclose(g.bind_w.sum(axis=1), 1.0, atol=1e-12)
        own = [int(np.flatnonzero((pts == q).all(axis=1))[0]) for q in g.node_positions]
        np.testing.assert_array_equal(g.bind_idx[own, 0], np.arange(g.n_nodes))

    def test_coincident_points_share_one_node(self, rng):
        g = build_graph(np.ones((5, 3)), 5.0)
        assert g.n_nodes == 1
        np.testing.assert_array_equal(g.bind_idx, np.zeros((5, 1)))
        cloud = rng.uniform(0.0, 10.0, (50, 3))
        cloud = np.vstack([cloud, cloud[[7, 7, 7]]])
        g = build_graph(cloud, 2.0)
        assert sum((g.node_positions == cloud[7]).all(axis=1)) == 1
        for c in (50, 51, 52):
            np.testing.assert_array_equal(g.bind_idx[c], g.bind_idx[7])
            np.testing.assert_array_equal(g.bind_w[c], g.bind_w[7])

    def test_single_point_is_one_node(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        g = build_graph(pts, radius=5.0)
        assert g.n_nodes == 1 and g.neighbors == [[]]
        np.testing.assert_array_equal(g.bind_idx, [[0]])
        np.testing.assert_array_equal(g.bind_w, [[1.0]])
        g, history = solve(g, pts, pts + 0.5)
        np.testing.assert_allclose(g.deform(pts), pts + 0.5, atol=1e-6)
        assert history[-1] < 1e-9 < history[0]


class TestDeformationGraph:
    def test_identity_deform_is_noop(self, rng):
        pts = rng.uniform(-20.0, 20.0, (300, 3))
        g = build_graph(pts, radius=8.0)
        np.testing.assert_allclose(g.deform(pts), pts, atol=1e-12)

    def test_pure_translation(self, rng):
        pts = rng.uniform(-20.0, 20.0, (300, 3))
        g = build_graph(pts, radius=8.0)
        g.translations[:] = [1.0, -2.0, 3.0]
        np.testing.assert_allclose(g.deform(pts), pts + [1.0, -2.0, 3.0],
                                   atol=1e-12)

    def test_dict_holds_the_graph_only(self, rng):
        pts = rng.uniform(-20.0, 20.0, (200, 3))
        g = build_graph(pts, radius=8.0)
        g.affines[:] = rng.normal(size=g.affines.shape)
        g.translations[:] = rng.normal(size=g.translations.shape)
        back = json.loads(json.dumps(g.to_dict()))
        assert sorted(back) == sorted(GRAPH_KEYS)
        # repr of a float64 round-trips it exactly
        for key, array in (("positions", g.node_positions), ("affines", g.affines),
                           ("translations", g.translations)):
            assert np.array(back[key]).tobytes() == array.tobytes(), key
        assert back["neighbors"] == [list(map(int, nb)) for nb in g.neighbors]
        assert back["sampling_radius"] == g.sampling_radius == 8.0

    def test_bind_out_of_reach(self, rng):
        pts = rng.uniform(-5.0, 5.0, (100, 3))
        g = build_graph(pts, radius=3.0)
        with pytest.raises(OutOfBindingReach):
            g.bind(np.array([[500.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_bind_rejects_non_finite_point(self, rng, bad):
        g = build_graph(rng.uniform(-5.0, 5.0, (100, 3)), radius=3.0)
        with pytest.raises(InvalidParams, match="finite"):
            g.bind(np.array([[0.0, 0.0, 0.0], [bad, 0.0, 0.0]]))

    @pytest.mark.parametrize("radius", [30.0, 10.0, 6.0, 4.5, 4.0, 2.0])
    def test_bind_matches_reference(self, rng, radius):
        """On a line, 1 to 4 nodes leave fewer than K + 1 candidates, and
        at small radii the farther candidates lie beyond reach; the probes
        include every node's own position."""
        line = _line_cloud(n=40, step=0.5)
        g = build_graph(line, radius)
        probes = np.vstack([g.node_positions, line + rng.normal(scale=0.3, size=line.shape)])
        bind_idx, bind_w = g.bind(probes)
        ref_idx, ref_w = _reference_bind(g, probes)
        assert np.array_equal(bind_idx, ref_idx) and bind_idx.dtype == ref_idx.dtype
        assert np.array_equal(bind_w, ref_w)
        assert np.array_equal(bind_idx[:g.n_nodes, 0], np.arange(g.n_nodes))

    def test_bind_weights_convex(self, rng):
        pts = rng.uniform(-20.0, 20.0, (200, 3))
        g = build_graph(pts, radius=8.0)
        probes = rng.uniform(-15.0, 15.0, (20, 3))
        _, w = g.bind(probes)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestEnergy:
    def test_zero_at_identity_fixed_point(self, rng):
        pts = rng.uniform(-20.0, 20.0, (300, 3))
        g = build_graph(pts, radius=8.0)
        idx = np.arange(len(pts))
        e = energy(g, pts, idx, pts, alpha1=10.0, alpha2=100.0, welsch_c=5.0)
        assert e.l_ali == 0.0 and e.l_reg == 0.0 and e.l_rot == 0.0
        assert e.total == 0.0

    def test_rigidity_of_doubled_affine(self):
        # one isolated node with A = 2I: ||A^T A - I||_F^2 = 27, (det-1)^2 = 49
        g = DeformationGraph(
            node_positions=np.zeros((1, 3)), affines=2.0 * np.eye(3)[None],
            translations=np.zeros((1, 3)), neighbors=[[]], sampling_radius=1.0,
            bind_idx=np.zeros((1, 1), dtype=int), bind_w=np.ones((1, 1)))
        v = np.zeros((1, 3))
        e = energy(g, v, np.array([0]), g.deform(v), 10.0, 100.0, 5.0)
        assert e.l_rot == pytest.approx(76.0, rel=1e-12)
        assert e.total == pytest.approx(100.0 * 76.0, rel=1e-12)

    def test_translation_smoothness_consistent(self, rng):
        pts = _line_cloud()
        g = build_graph(pts, radius=10.0)
        g.translations[:] = [0.0, 1.0, 0.0]  # common shift keeps edges consistent
        idx = np.arange(len(pts))
        e = energy(g, pts, idx, pts + [0.0, 1.0, 0.0], 10.0, 100.0, 5.0)
        assert e.l_reg == pytest.approx(0.0, abs=1e-20)
        assert e.l_rot == pytest.approx(0.0, abs=1e-20)


    def test_matches_per_node_loop_formula(self, rng):
        g, pts, target = _perturbed_graph(rng)
        idx = np.arange(0, len(pts), 2)
        e = energy(g, pts, idx, target[idx], 10.0, 100.0, 5.0)

        deformed = g.deform(pts[idx], g.bind_idx[idx], g.bind_w[idx])
        sq = np.sum((deformed - target[idx]) ** 2, axis=1)
        l_ali = np.sum(25.0 * (1.0 - np.exp(-sq / 25.0)))
        l_reg = l_rot = 0.0
        for i, nb in enumerate(g.neighbors):
            A, gi, ti = g.affines[i], g.node_positions[i], g.translations[i]
            for j in nb:
                gj, tj = g.node_positions[j], g.translations[j]
                l_reg += np.sum((A @ (gj - gi) + gi + ti - (gj + tj)) ** 2)
            l_rot += np.sum((A.T @ A - np.eye(3)) ** 2) + (np.linalg.det(A) - 1.0) ** 2
        assert l_reg > 0.0 and l_rot > 0.0
        assert e.l_ali == pytest.approx(l_ali, rel=1e-12)
        assert e.l_reg == pytest.approx(l_reg, rel=1e-12)
        assert e.l_rot == pytest.approx(l_rot, rel=1e-12)
        assert e.total == pytest.approx(l_ali + 10.0 * l_reg + 100.0 * l_rot, rel=1e-12)


def _blocks(residual_map, x, targets):
    """The residual blocks (r_ali, r_reg, r_rot, r_det) at packed x."""
    deformed, *rest = residual_map(x)
    return (deformed - targets, *rest)


def _dense_normal_equations(g, pts, idx, target, x, params):
    """Damped H = J^T J and gradient J^T r of the Welsch-weighted residuals at
    the packed parameters x, with the IRLS weights frozen at x; J is taken by
    complex step through the residual map, exact to rounding for these
    polynomial residuals."""
    residual_map = _ResidualMap(g, pts, idx)
    sw = np.exp(-np.sum(_blocks(residual_map, x, target)[0] ** 2, axis=1)
                / params.welsch_c ** 2) ** 0.5

    def weighted_residual(x):
        r_ali, r_reg, r_rot, r_det = _blocks(residual_map, x, target)
        return np.concatenate([(sw[:, None] * r_ali).ravel(),
                               np.sqrt(params.alpha1) * r_reg.ravel(),
                               np.sqrt(params.alpha2) * r_rot.ravel(),
                               np.sqrt(params.alpha2) * r_det])

    n_par = x.size
    J = np.empty((len(weighted_residual(x)), n_par))
    for c in range(n_par):
        xc = x.astype(complex)
        xc[c] += 1e-30j
        J[:, c] = weighted_residual(xc).imag / 1e-30
    H = J.T @ J
    H += registration.LEVENBERG * max(H.diagonal().max(), 1.0) * np.eye(n_par)
    return H, J.T @ weighted_residual(x)


def _solver_calls(monkeypatch, reused_step=None):
    """Log the solver's closest-point queries, factorizations and
    back-substitutions as "query" / "factor" / "solve" events. A solve not
    right after a factor reuses an older factor; `reused_step`, if given,
    replaces the step such a solve returns."""
    events = []

    class Tree(registration.cKDTree):
        def query(self, *args, **kwargs):
            events.append("query")
            return super().query(*args, **kwargs)

    def factor(*args, **kwargs):
        events.append("factor")
        return cholesky_banded(*args, **kwargs)

    def back_substitute(*args, **kwargs):
        reused = events[-1] != "factor"
        events.append("solve")
        x = cho_solve_banded(*args, **kwargs)
        return reused_step(x) if reused and reused_step else x

    monkeypatch.setattr(registration, "cKDTree", Tree)
    monkeypatch.setattr(registration, "cholesky_banded", factor)
    monkeypatch.setattr(registration, "cho_solve_banded", back_substitute)
    return events


def _bending_patch(template):
    shell, axial, _ = template.top_shell()
    keep = (axial > 180.0) & (axial < 320.0)  # patch across the elbow
    pts = shell.points[keep]
    return pts, hinge_points(pts, axial[keep], template.elbow, 150.0, 30.0)


class TestResidualMap:
    @pytest.mark.parametrize("binding_k", range(1, 8))
    def test_matches_deform_and_edge_formula(self, rng, binding_k):
        pts = rng.uniform(0.0, 60.0, (300, 3)) * np.array([1.0, 0.4, 0.1])
        g = _build_graph_k(pts, 8.0, binding_k)
        # bind two rows to one node by hand, so every K > 1 has -1 slots
        for v in (0, 1):
            g.bind_idx[v, 1:] = -1
            g.bind_w[v] = np.eye(binding_k)[0]
        assert (g.bind_idx < 0).any() == (binding_k > 1)
        g.affines = g.affines + rng.normal(scale=0.05, size=g.affines.shape)
        g.translations = rng.normal(scale=0.5, size=g.translations.shape)
        idx = np.arange(0, len(pts), 3)

        deformed, r_reg, r_rot, r_det = _ResidualMap(g, pts, idx)(_pack(g))
        np.testing.assert_allclose(
            deformed, g.deform(pts[idx], g.bind_idx[idx], g.bind_w[idx]), rtol=0, atol=1e-12)
        expected = [g.affines[i] @ (g.node_positions[j] - g.node_positions[i])
                    + g.node_positions[i] + g.translations[i]
                    - (g.node_positions[j] + g.translations[j])
                    for i, nb in enumerate(g.neighbors) for j in nb]
        assert len(expected) > 0
        np.testing.assert_allclose(r_reg, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            r_rot, [(A.T @ A - np.eye(3)).ravel() for A in g.affines], rtol=0, atol=1e-12)
        # bit for bit as over C-ordered affines: einsum over a transposed view
        # of x sums in another order, which moves the solve's energy by an ulp
        ata = np.einsum("nij,nik->njk", g.affines, g.affines)
        assert np.array_equal(r_rot, (ata - np.eye(3)).reshape(-1, 9))
        np.testing.assert_allclose(r_det, np.linalg.det(g.affines) - 1.0, rtol=0, atol=1e-12)

    def test_expanded_map_is_its_jacobian(self, rng):
        # the map is affine in x, so a unit complex step reads each column
        # of its Jacobian exactly; the reference lists them in packed order
        g, pts, _ = _perturbed_graph(rng, n=200)
        residual_map = _ResidualMap(g, pts, np.arange(0, 200, 3))
        x = _pack(g)
        jac = np.empty((3 * residual_map.matrix.shape[0], x.size))
        for c in range(x.size):
            xc = x.astype(complex)
            xc[c] += 1j
            deformed, r_reg, *_ = residual_map(xc)
            jac[:, c] = np.concatenate([deformed, r_reg]).imag.ravel()
        assert np.array_equal(_expanded(residual_map.matrix).toarray(),
                              jac[:, _x_index(g.n_nodes)])

    def test_rejects_vertex_count_other_than_bound(self, rng):
        g, pts, target = _perturbed_graph(rng)
        for verts in (pts[:100], np.vstack([pts, pts[:1]])):
            with pytest.raises(InvalidParams, match="vertices for a graph bound to 300"):
                _ResidualMap(g, verts, np.arange(len(verts) // 2))
        with pytest.raises(InvalidParams):
            energy(g, pts[:100], np.arange(100), target[:100], 10.0, 100.0, 5.0)


class TestBandedNormalEquations:
    def test_step_matches_dense_solve(self, rng):
        g, pts, target = _perturbed_graph(rng, n=200)
        params = SolveParams()
        idx = np.arange(len(pts))
        H, grad = _dense_normal_equations(g, pts, idx, target, _pack(g), params)
        expected = np.linalg.solve(H, -grad)

        residual_map = _ResidualMap(g, pts, idx)
        normal = _BandedNormalEquations(residual_map)
        got = normal.step(_blocks(residual_map, _pack(g), target), g.affines, params,
                          fresh=True)
        assert normal.bandwidth < len(grad) - 1  # the RCM order leaves a true band
        # and the band has no padding: its last sub-diagonal holds an entry
        rows, cols = np.nonzero(H[np.ix_(normal.perm, normal.perm)])
        assert normal.bandwidth == np.max(rows - cols)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_reused_factor_step_is_exact(self, rng):
        # factor at x0, move to x1: the step solves H(x0) delta = -g(x1)
        g, pts, target = _perturbed_graph(rng, n=200)
        params = SolveParams()
        idx = np.arange(len(pts))
        x0 = _pack(g)
        x1 = x0 + rng.normal(scale=0.02, size=x0.shape)
        H0, _ = _dense_normal_equations(g, pts, idx, target, x0, params)
        _, grad1 = _dense_normal_equations(g, pts, idx, target, x1, params)
        expected = np.linalg.solve(H0, -grad1)

        residual_map = _ResidualMap(g, pts, idx)
        normal = _BandedNormalEquations(residual_map)
        normal.step(_blocks(residual_map, x0, target), g.affines, params, fresh=True)
        _unpack(g, x1)
        got = normal.step(_blocks(residual_map, x1, target), g.affines, params, fresh=False)
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
        fresh = normal.step(_blocks(residual_map, x1, target), g.affines, params, fresh=True)
        assert np.linalg.norm(got - fresh) > 1e-3 * np.linalg.norm(fresh)


def _einsum_jacobians(affines):
    """The rigidity Jacobians as 5-index einsums and np.cross of row pairs."""
    m, eye = len(affines), np.eye(3)
    j_rot = (np.einsum("ad,ncb->nabcd", eye, affines)
             + np.einsum("bd,nca->nabcd", eye, affines)).reshape(m, 9, 9)
    j_det = np.cross(affines[:, [1, 2, 0]], affines[:, [2, 0, 1]]).reshape(m, 9)
    return j_rot, j_det


# per node, (A[a, :], t[a]): the packed-order unknowns that coordinate a of
# an alignment or edge row touches, A.ravel() being 0..8 and t 9..11
_PACKED_GROUP = np.array([[0, 1, 2, 9], [3, 4, 5, 10], [6, 7, 8, 11]])


def _x_index(m):
    """Where x keeps each unknown of packed order, (A.ravel(), t) per node:
    x.reshape(m, 4, 3)[n] is [A^T; t], so A[a, k] sits at 12n + 3k + a."""
    a, k = np.divmod(np.arange(9), 3)
    return (12 * np.arange(m)[:, None] + np.r_[3 * k + a, 9, 10, 11]).ravel()


def _expanded(u):
    """The 3R x 12m map M over the packed unknowns that U stands for: row
    3r + a holds U's row r at the unknowns _PACKED_GROUP[a] of each node, so
    M @ x[_x_index(m)] is (U @ x.reshape(-1, 3)).ravel()."""
    coo = u.tocoo()
    node, col = np.divmod(coo.col, 4)
    rows = 3 * coo.row[:, None] + np.arange(3)
    cols = 12 * node[:, None] + _PACKED_GROUP.T[col]
    return sp.csr_matrix((np.repeat(coo.data, 3), (rows.ravel(), cols.ravel())),
                         shape=(3 * u.shape[0], 3 * u.shape[1]))


def _pattern_order(matrix):
    """RCM order and bandwidth from H's 12m-wide pattern: M^T M, counting
    M's explicit zeros, plus each node's 9 x 9 affine block."""
    n = matrix.shape[1]
    m = n // 12
    ones = matrix.copy()
    ones.data[:] = 1.0
    pattern = (ones.T @ ones + sp.kron(sp.identity(m), np.pad(np.ones((9, 9)), (0, 3)))
               ).tocoo()
    adj = sp.csr_matrix((np.ones(pattern.nnz), (pattern.row // 12, pattern.col // 12)),
                        shape=(m, m))
    order = reverse_cuthill_mckee(adj, symmetric_mode=True)
    perm = (12 * order[:, None] + np.arange(12)).ravel()
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    return perm, int(np.max(pos[pattern.row] - pos[pattern.col]))


def _reference_band(matrix, normal, weight, h_rot):
    """Undamped H in lower band storage as M^T diag(w) M plus each node's
    rigidity block padded to 12 x 12, summed as sparse matrices in packed
    order, each entry placed at the band position of its unknowns."""
    m = len(h_rot)
    h_rot = np.pad(h_rot, ((0, 0), (0, 3), (0, 3)))
    h = (matrix.T @ sp.diags(np.repeat(weight, 3)) @ matrix
         + sp.bsr_matrix((h_rot, np.arange(m), np.arange(m + 1)),
                         shape=(normal.n, normal.n))).tocoo()
    pos = normal.pos[_x_index(m)]
    r, c = pos[h.row], pos[h.col]
    lower = r >= c
    band = np.zeros((normal.bandwidth + 1, normal.n))
    band[(r - c)[lower], c[lower]] = h.data[lower]
    return band


def _weights(blocks, params):
    r_ali, r_reg = blocks[:2]
    return np.concatenate([np.exp(-np.sum(r_ali ** 2, axis=1) / params.welsch_c ** 2),
                           np.full(len(r_reg), params.alpha1)])


def _einsum_step(normal, blocks, affines, params, fresh):
    """_BandedNormalEquations.step with the einsum Jacobians and the
    gradient and H through the 3R x 12m map M, in packed order; the step
    comes back in x's layout."""
    r_ali, r_reg, r_rot, r_det = blocks
    m = len(affines)
    matrix = _expanded(normal.matrix)
    weight = _weights(blocks, params)
    grad = matrix.T @ (weight[:, None] * np.concatenate([r_ali, r_reg])).ravel()
    j_rot, j_det = _einsum_jacobians(affines)
    grad.reshape(m, 12)[:, :9] += params.alpha2 * (
        np.einsum("nri,nr->ni", j_rot, r_rot) + j_det * r_det[:, None])
    if fresh:
        h_rot = params.alpha2 * (np.einsum("nri,nrj->nij", j_rot, j_rot)
                                 + j_det[:, :, None] * j_det[:, None, :])
        band = _reference_band(matrix, normal, weight, h_rot)
        band[0] += registration.LEVENBERG * max(band[0].max(), 1.0)
        normal.factor = cholesky_banded(band, lower=True)
    index = _x_index(m)
    perm = np.argsort(normal.pos[index])  # the band's packed-order unknowns
    delta = np.empty(normal.n)
    delta[index[perm]] = cho_solve_banded((normal.factor, True), -grad[perm])
    return delta


@pytest.fixture(scope="module")
def aligned_140(atlas, scene_cache):
    """The atlas aligned to the 140 deg scene, and the scene's points: the
    source and target of the pipeline's solve."""
    posed, _, seg = scene_cache(140.0)
    target = ArmObservation(seg.forearm, seg.upperarm, posed.wrist, posed.elbow, posed.shoulder)
    aligned = initial_align(_observation(atlas), target)[0]
    return aligned.union_points(), target.union_points()


def _solve_inputs(aligned_140, radius):
    """The pipeline's graph, vertices, correspondence subset and opening
    targets at this radius."""
    verts, tgt = aligned_140
    corr = np.arange(0, len(verts), max(1, len(verts) // SolveParams().max_correspondences))
    targets = tgt[cKDTree(tgt).query(verts[corr])[1]]
    return build_graph(verts, radius), verts, corr, targets


class TestFourColumnForm:
    """The R x 4m map U gives bit-equal results to the 3R x 12m map M."""

    @pytest.fixture(params=["radius-15", "radius-8", "one-node"])
    def case(self, request, rng, aligned_140):
        if request.param == "one-node":
            verts = rng.uniform(0.0, 1.0, (20, 3))
            g, corr = build_graph(verts, radius=5.0), np.arange(20)
            targets = verts + rng.normal(scale=0.3, size=verts.shape)
            assert g.n_nodes == 1
        else:
            g, verts, corr, targets = _solve_inputs(aligned_140, float(request.param[7:]))
        g.affines = g.affines + rng.normal(scale=0.05, size=g.affines.shape)
        g.translations = rng.normal(scale=0.5, size=g.translations.shape)
        return g, verts, corr, targets

    def test_bit_equal_to_expanded_map(self, case, monkeypatch):
        g, verts, corr, targets = case
        residual_map = _ResidualMap(g, verts, corr)
        u, x = residual_map.matrix, _pack(g)
        index = _x_index(g.n_nodes)
        packed = np.hstack([g.affines.reshape(-1, 9), g.translations]).ravel()
        assert np.array_equal(x[index], packed)
        matrix = _expanded(u)
        assert u.nnz * 3 == matrix.nnz
        deformed, r_reg, *_ = residual_map(x)
        assert np.array_equal(np.concatenate([deformed, r_reg]).ravel(),
                              matrix @ packed + residual_map.offset.ravel())

        params = SolveParams()
        blocks = _blocks(residual_map, x, targets)
        weight = _weights(blocks, params)
        v = weight[:, None] * np.concatenate(blocks[:2])
        normal = _BandedNormalEquations(residual_map)
        assert np.array_equal((normal.matrix_t @ v).ravel()[index], matrix.T @ v.ravel())

        perm, bandwidth = _pattern_order(matrix)
        assert np.array_equal(normal.perm, index[perm])
        assert normal.bandwidth == bandwidth

        bands = []
        monkeypatch.setattr(registration, "cholesky_banded",
                            lambda band, **kw: bands.append(band.copy())
                            or cholesky_banded(band, **kw))
        normal.step(blocks, g.affines, params, fresh=True)
        j_rot, j_det = _rigidity_jacobians(g.affines)
        expected = _reference_band(matrix, normal, weight, params.alpha2 * (
            np.einsum("nri,nrj->nij", j_rot, j_rot) + j_det[:, :, None] * j_det[:, None, :]))
        expected[0] += registration.LEVENBERG * max(expected[0].max(), 1.0)
        assert np.array_equal(bands[0], expected)

    def test_setup_and_first_step_peak_memory(self, aligned_140):
        # declared before measuring: the band itself plus 20 MiB for U, U^T,
        # U^T W U and the band's index arrays
        g, verts, corr, targets = _solve_inputs(aligned_140, 8.0)
        tracemalloc.start()
        try:
            residual_map = _ResidualMap(g, verts, corr)
            normal = _BandedNormalEquations(residual_map)
            x = _pack(g)
            normal.step(_blocks(residual_map, x, targets), _affines(x), SolveParams(),
                        fresh=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band_bytes = 8 * normal.n * (normal.bandwidth + 1)
        print(f"peak {peak / 2**20:.2f} MiB, band {band_bytes / 2**20:.2f} MiB")
        assert peak <= band_bytes + 20 * 2**20


class TestStepKernels:
    """The step's Jacobians and gradient are bit-equal to the einsum,
    np.cross and transposed-view formulas."""

    def test_rigidity_jacobians(self, rng):
        x = rng.normal(size=(60, 12)).ravel()
        x[:12] = np.r_[np.eye(3).ravel(), 0.0, 0.0, 0.0]  # the identity node
        x[12:24] = np.round(x[12:24], 1)
        affines = _affines(x)  # a C-ordered copy, as in solve
        j_rot, j_det = _rigidity_jacobians(affines)
        want_rot, want_det = _einsum_jacobians(affines)
        assert np.array_equal(j_rot, want_rot)
        assert np.array_equal(j_det, want_det)
        assert np.array_equal(np.unique(registration._ROT_MAP), [0.0, 1.0, 2.0])

    def test_transposed_matrix(self, rng):
        g, pts, _ = _perturbed_graph(rng, n=200)
        normal = _BandedNormalEquations(_ResidualMap(g, pts, np.arange(0, 200, 2)))
        v = rng.normal(size=normal.matrix.shape[0])
        assert np.array_equal(normal.matrix_t @ v, normal.matrix.T @ v)

    def test_step(self, rng):
        g, pts, target = _perturbed_graph(rng, n=200)
        params = SolveParams()
        residual_map = _ResidualMap(g, pts, np.arange(len(pts)))
        normal, reference = (_BandedNormalEquations(residual_map) for _ in range(2))
        x0 = _pack(g)
        x1 = x0 + rng.normal(scale=0.02, size=x0.shape)
        for x, fresh in ((x0, True), (x1, False), (x1, True)):
            blocks = _blocks(residual_map, x, target)
            got = normal.step(blocks, _affines(x), params, fresh)
            assert np.array_equal(got, _einsum_step(reference, blocks, _affines(x),
                                                    params, fresh))


class TestInitialAlign:
    def test_recovers_yaw_and_translation(self, atlas):
        src = _observation(atlas)
        theta = 0.5
        c, s = np.cos(theta), np.sin(theta)
        T = RigidTransform(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]),
                           np.array([30.0, -12.0, 4.0]))
        tgt = ArmObservation(PointCloud3(T.apply(src.forearm.points)),
                             PointCloud3(T.apply(src.upperarm.points)),
                             T.apply(src.wrist), T.apply(src.elbow),
                             T.apply(src.shoulder))
        aligned, transforms, scales, maps = initial_align(src, tgt)
        np.testing.assert_allclose(aligned.union_points(),
                                   tgt.union_points(), atol=1e-6)
        np.testing.assert_allclose(aligned.elbow, tgt.elbow, atol=1e-6)
        for name in ("forearm", "upperarm"):
            np.testing.assert_allclose(scales[name], 1.0, atol=1e-6)

    def test_point_maps_match_aligned_cloud(self, atlas):
        src = _observation(atlas)
        T = RigidTransform(np.eye(3), np.array([5.0, 2.0, 0.0]))
        tgt = ArmObservation(PointCloud3(T.apply(src.forearm.points)),
                             PointCloud3(T.apply(src.upperarm.points)),
                             T.apply(src.wrist), T.apply(src.elbow),
                             T.apply(src.shoulder))
        aligned, _, _, maps = initial_align(src, tgt)
        np.testing.assert_allclose(maps["forearm"](src.forearm.points),
                                   aligned.forearm.points, atol=1e-9)

    def test_degenerate_joints_rejected(self, atlas):
        src = _observation(atlas)
        bad = ArmObservation(src.forearm, src.upperarm, src.wrist, src.wrist,
                             src.shoulder)
        with pytest.raises(DegenerateSegment):
            initial_align(src, bad)


def test_registration_ignores_memory_layout(atlas, scene_cache):
    """C- and Fortran-ordered copies of the same clouds register alike: the
    140 deg scene's extracted clouds, every 8th point, at a 30 mm radius."""
    posed, _, seg = scene_cache(140.0)
    src = _observation(atlas)

    def registered(order):
        def cloud(c):
            return PointCloud3(np.array(c.points[::8], order=order))
        source = ArmObservation(cloud(src.forearm), cloud(src.upperarm),
                                src.wrist, src.elbow, src.shoulder)
        target = ArmObservation(cloud(seg.forearm), cloud(seg.upperarm),
                                posed.wrist, posed.elbow, posed.shoulder)
        _, graph, history = register_atlas(source, target, RegistrationConfig(radius=30.0))
        return graph.to_dict(), history

    assert registered("C") == registered("F")


class TestSolve:
    def test_fixed_point_stays_put(self, rng):
        pts = rng.uniform(-20.0, 20.0, (400, 3))
        g = build_graph(pts, radius=8.0)
        g, history = solve(g, pts, pts, SolveParams(max_outer=2))
        assert history[-1] <= 1e-8
        np.testing.assert_allclose(g.deform(pts), pts, atol=1e-6)

    def test_recovers_small_translation(self, rng):
        pts = rng.uniform(0.0, 60.0, (600, 3)) * np.array([1.0, 0.3, 0.1])
        target = pts + np.array([0.8, -0.5, 0.3])
        g = build_graph(pts, radius=10.0)
        g, history = solve(g, pts, target, SolveParams())
        moved = g.deform(pts)
        d, _ = cKDTree(target).query(moved)
        assert np.median(d) < 0.1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_history_monotone_under_bending(self, template, monkeypatch):
        pts, target = _bending_patch(template)
        g = build_graph(pts, radius=15.0)
        events = _solver_calls(monkeypatch)
        params = SolveParams(max_outer=15)
        g, history = solve(g, pts, target, params)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        d, _ = cKDTree(target).query(g.deform(pts))
        assert np.median(d) < 1.0

        # one factorization opens the solve (after its first query); any
        # other follows a failed step and retries it
        assert events[:2] == ["query", "factor"]
        retries = sum(a == "solve" and b == "factor" for a, b in zip(events, events[1:]))
        assert events.count("factor") == 1 + retries
        assert events.count("factor") < len(history) - events.count("query")

    def test_failed_reused_step_is_retried_fresh(self, template, monkeypatch):
        # a kept factor that yields only a zero step fails its full-length
        # trial; the step is retried with H factored at the same point
        pts, target = _bending_patch(template)
        params = SolveParams(max_outer=4)
        g = build_graph(pts, radius=15.0)
        events = _solver_calls(monkeypatch, reused_step=np.zeros_like)
        _, history = solve(g, pts, target, params)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        reused = [i for i in range(1, len(events))
                  if events[i] == "solve" and events[i - 1] != "factor"]
        assert reused
        assert all(events[i + 1] == "factor" for i in reused)
        # the factor is kept across outer iterations, so an outer
        # iteration's first step (right after its query) is retried too
        assert any(events[i - 1] == "query" for i in reused)

        # every accepted step used a fresh factor, as when H is factored on
        # every step
        monkeypatch.undo()
        step = _BandedNormalEquations.step
        monkeypatch.setattr(_BandedNormalEquations, "step",
                            lambda self, blocks, affines, params, fresh:
                            step(self, blocks, affines, params, True))
        _, every_step = solve(build_graph(pts, radius=15.0), pts, target, params)
        assert history == every_step

    def test_kept_factor_ends_near_refactoring_every_step(self, template, monkeypatch):
        # the patch bends by 30 degrees from identity affines, far enough
        # that the first factor's full steps stop lowering the energy
        pts, target = _bending_patch(template)
        events = _solver_calls(monkeypatch)
        _, history = solve(build_graph(pts, radius=15.0), pts, target, SolveParams())
        retries = sum(a == "solve" and b == "factor" for a, b in zip(events, events[1:]))
        assert 0 < retries and events.count("factor") == 1 + retries
        assert events.count("factor") < len(history) // 10
        monkeypatch.undo()
        step = _BandedNormalEquations.step
        monkeypatch.setattr(_BandedNormalEquations, "step",
                            lambda self, blocks, affines, params, fresh:
                            step(self, blocks, affines, params, True))
        _, every_step = solve(build_graph(pts, radius=15.0), pts, target, SolveParams())
        assert history[-1] == pytest.approx(every_step[-1], rel=1e-3)

    def test_first_outer_iteration_reuses_opening_energy(self, template):
        # the energy at the opening correspondences is recorded once, so
        # the second entry is already the first accepted step
        pts, target = _bending_patch(template)
        _, history = solve(build_graph(pts, radius=15.0), pts, target,
                           SolveParams(max_outer=2))
        assert history[1] < history[0]

    def test_never_deforms(self, template, monkeypatch):
        # every evaluation, and every closest-point query, goes through the
        # solve's residual map
        calls = []
        deform = DeformationGraph.deform
        monkeypatch.setattr(DeformationGraph, "deform",
                            lambda self, *a, **k: calls.append(1) or deform(self, *a, **k))
        pts, target = _bending_patch(template)
        g, history = solve(build_graph(pts, radius=15.0), pts, target,
                           SolveParams(max_outer=3))
        assert len(history) > 3 and calls == []
        g.deform(pts)
        assert calls == [1]

    def test_rejects_vertices_shorter_than_bindings(self, rng):
        g, pts, target = _perturbed_graph(rng)
        with pytest.raises(InvalidParams, match="100 vertices for a graph bound to 300"):
            solve(g, pts[:100], target)

    @pytest.mark.parametrize("target", [np.zeros((0, 3)), np.zeros(0)],
                             ids=["no-rows", "flat-empty"])
    def test_rejects_empty_target(self, rng, target):
        g, pts, _ = _perturbed_graph(rng)
        with pytest.raises(InvalidParams, match="empty target"):
            solve(g, pts, target)

    @pytest.mark.parametrize("field, value", [
        ("max_correspondences", 0), ("max_correspondences", 2.5),
        ("welsch_c", 0.0), ("welsch_c", float("nan")), ("welsch_c", float("inf")),
        ("alpha1", -1.0), ("alpha1", float("inf")), ("alpha2", -1.0), ("alpha2", float("nan")),
        ("tol", float("nan")), ("tol", 0.0), ("tol", -1.0), ("tol", float("inf")),
        ("max_outer", 2.5), ("max_outer", -1), ("alpha1", "10"), ("max_outer", True)])
    def test_params_validation(self, field, value):
        with pytest.raises(InvalidParams, match=field):
            SolveParams(**{field: value})


class TestTransferTrajectory:
    def test_identity_graph_keeps_points(self, rng):
        pts = np.zeros((12, 3))
        pts[:, 0] = np.arange(12.0)
        surf_xy = rng.uniform(-2.0, 14.0, (500, 2))
        surface = PointCloud3(np.column_stack([surf_xy, np.ones(500)]))
        g = build_graph(pts, radius=4.0)
        traj = ScanTrajectory(pts, np.arange(12))
        moved = transfer_trajectory(traj, g, surface, UP)
        np.testing.assert_allclose(moved.surface_points, pts, atol=1e-9)
        assert len(moved.poses) == 12

    def test_poses_orthonormal_and_pushing_down(self, rng):
        pts = np.zeros((12, 3))
        pts[:, 0] = np.arange(12.0)
        surface = PointCloud3(
            np.column_stack([rng.uniform(-2.0, 14.0, (500, 2)), np.ones(500)]))
        g = build_graph(pts, radius=4.0)
        moved = transfer_trajectory(ScanTrajectory(pts, np.arange(12)), g,
                                    surface, UP)
        for pose in moved.poses:
            R = pose.rotation
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert np.linalg.det(R) == pytest.approx(1.0)
            assert R[:, 2] @ UP < 0  # probe z into the surface
            # probe x follows the scan direction (+x here)
            assert R[0, 0] > 0.9


def _z_axes(traj):
    return np.array([p.rotation[:, 2] for p in traj.poses])


def _plane(rng, abc=(0.0, 0.0, 0.0), noise=1e-4, n=400):
    """n points of the skin z = a + b x + c y, z jittered by noise."""
    xy = rng.uniform(-10.0, 10.0, (n, 2))
    return np.column_stack([xy, abc[0] + xy @ abc[1:] + rng.normal(0.0, noise, n)])


class TestAttachProbePoses:
    def test_z_axes_on_a_plane(self, rng):
        pts = np.column_stack([np.linspace(-8.0, 8.0, 9), np.zeros(9), np.zeros(9)])
        # a noisy flat skin, and a noise-free tilted one whose plane is exact
        # under any up, unit or not
        for abc, noise, up, atol in (((0.0, 0.0, 0.0), 1e-4, UP, 1e-2),
                                     ((5.0, 0.2, -0.15), 0.0, UP, 1e-12),
                                     ((5.0, 0.2, -0.15), 0.0, [0.3, -0.2, 2.0], 1e-12)):
            target = PointCloud3(_plane(rng, abc, noise))
            traj = attach_probe_poses(ScanTrajectory(pts, np.arange(9)), target, up)
            normal = np.array([-abc[1], -abc[2], 1.0])
            np.testing.assert_allclose(_z_axes(traj),
                                       np.tile(-normal / np.linalg.norm(normal), (9, 1)),
                                       rtol=0.0, atol=atol)

    def test_orientation_follows_up(self, rng):
        target = PointCloud3(_plane(rng))
        pts = np.column_stack([np.linspace(-8.0, 8.0, 9), np.zeros(9), np.zeros(9)])
        # the skin normal turns toward up, the probe z against it
        for up, sign in (([0.0, 0.0, 1.0], -1.0), ([0.0, 0.0, -1.0], 1.0)):
            traj = attach_probe_poses(ScanTrajectory(pts, np.arange(9)), target, up)
            assert np.all(sign * _z_axes(traj)[:, 2] > 0.99)

    def test_collinear_neighborhood_raises(self):
        target = PointCloud3(np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)]))
        with pytest.raises(DegenerateConfiguration, match="rank-deficient"):
            attach_probe_poses(ScanTrajectory([[4.0, 0.0, 0.0]], [0]), target, UP)

    def test_degenerate_strand_matters_only_under_a_station(self, rng):
        plane = np.column_stack([rng.uniform(-2.0, 14.0, (500, 2)), np.ones(500)])
        strand = np.column_stack([np.arange(30.0), np.full(30, 200.0), np.ones(30)])
        target = PointCloud3(np.vstack([plane, strand]))
        pts = np.column_stack([np.arange(12.0), np.zeros(12), np.ones(12)])
        traj = attach_probe_poses(ScanTrajectory(pts, np.arange(12)), target, UP)
        assert all(p.rotation[2, 2] == pytest.approx(-1.0) for p in traj.poses)
        under = ScanTrajectory(pts + [0.0, 200.0, 0.0], np.arange(12))
        with pytest.raises(DegenerateConfiguration, match="rank-deficient"):
            attach_probe_poses(under, target, UP)

    @pytest.mark.parametrize("n", [0, 2])
    def test_too_small_target_named_before_distance(self, n):
        pts = np.column_stack([np.arange(5.0), np.zeros(5), np.zeros(5)])
        with pytest.raises(InvalidParams, match="needs at least 3 surface points"):
            attach_probe_poses(ScanTrajectory(pts, np.arange(5)),
                               PointCloud3(np.eye(3)[:n]), UP)
