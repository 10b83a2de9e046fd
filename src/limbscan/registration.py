"""Non-rigid atlas-to-scene registration with an embedded deformation graph.

Pipeline: per-segment initial alignment (joint overlay + PCA scaling), graph
construction by geodesic sampling of the aligned source, robust alternating
closest-point / Gauss-Newton minimization of the alignment + smoothness +
rigidity energy, then trajectory transfer through the optimized graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse.csgraph import dijkstra, reverse_cuthill_mckee
from scipy.spatial import cKDTree

from .errors import (DegenerateSegment, InvalidParams, NonFiniteEnergy,
                     OutOfBindingReach, bounded, check_fields)
from .geometry import PointCloud3, RigidTransform, pca_obb
from .trajectory import ScanTrajectory, skin_planes, unit_up

BINDING_K = 4      # graph nodes each vertex or trajectory point is bound to
KNN_K = 8          # neighbours per point in the graph geodesics run over
MAX_INNER = 4      # Gauss-Newton steps per outer iteration of `solve`
LEVENBERG = 1e-6   # damping, relative to the largest diagonal entry of H
NORMAL_REACH = 6.0  # mm across up from a probe station to the skin of its plane


@dataclass
class ArmObservation:
    """A segmented arm surface with its three joint landmarks."""

    forearm: PointCloud3
    upperarm: PointCloud3
    wrist: np.ndarray
    elbow: np.ndarray
    shoulder: np.ndarray

    def union_points(self) -> np.ndarray:
        return np.vstack([self.forearm.points, self.upperarm.points])


@dataclass
class DeformationGraph:
    """Sparse node set with per-node affine + translation and vertex bindings.

    Bindings are fixed-width arrays: bind_idx[v] lists up to K node indices
    (-1 padding) and bind_w[v] the matching convex weights.
    """

    node_positions: np.ndarray         # (m, 3)
    affines: np.ndarray                # (m, 3, 3)
    translations: np.ndarray           # (m, 3)
    neighbors: list[list[int]]
    sampling_radius: float
    bind_idx: np.ndarray               # (n, K), int, -1 padded
    bind_w: np.ndarray                 # (n, K)

    @property
    def n_nodes(self) -> int:
        return len(self.node_positions)

    def deform(self, points: np.ndarray, bind_idx: np.ndarray | None = None,
               bind_w: np.ndarray | None = None) -> np.ndarray:
        """Blend node transforms onto points (defaults to the stored bindings)."""
        if bind_idx is None:
            bind_idx, bind_w = self.bind_idx, self.bind_w
        p = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.where(bind_idx < 0, 0, bind_idx)
        g = self.node_positions[idx]                       # (n, K, 3)
        rel = p[:, None, :] - g
        mapped = np.einsum("nkij,nkj->nki", self.affines[idx], rel) + g + self.translations[idx]
        return np.sum(bind_w[..., None] * mapped, axis=1)

    def bind(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean binding of arbitrary points to up to BINDING_K nodes
        within reach."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.isfinite(p).all():
            raise InvalidParams("points to bind must be finite")
        # k as a list keeps BINDING_K + 1 columns, missing neighbours at inf
        d, idx = cKDTree(self.node_positions).query(p, k=[*range(1, BINDING_K + 2)])
        found = d[:, :BINDING_K] <= 2.0 * self.sampling_radius
        if not found[:, 0].all():
            raise OutOfBindingReach(
                f"point {int(np.argmin(found[:, 0]))} beyond reach of every node")
        return _bindings(d, idx, found)

    def to_dict(self) -> dict:
        """The graph without its bindings: they index the source vertices,
        which the dict does not hold."""
        return {
            "sampling_radius": self.sampling_radius,
            "positions": self.node_positions.tolist(),
            "affines": self.affines.tolist(),
            "translations": self.translations.tolist(),
            "neighbors": [list(map(int, nb)) for nb in self.neighbors],
        }


@dataclass
class EnergyBreakdown:
    l_ali: float
    l_reg: float
    l_rot: float
    alpha1: float
    alpha2: float

    @property
    def total(self) -> float:
        return self.l_ali + self.alpha1 * self.l_reg + self.alpha2 * self.l_rot


@dataclass(frozen=True)
class SolveParams:
    alpha1: float = bounded(10.0, "[0, inf)")
    alpha2: float = bounded(100.0, "[0, inf)")
    welsch_c: float = bounded(5.0, "(0, inf)")   # mm, robust kernel scale
    tol: float = bounded(1e-5, "(0, inf)")       # relative energy decrease per outer iteration
    max_outer: int = bounded(50, "[0, inf)")
    max_correspondences: int = bounded(3000, "[1, inf)")

    def __post_init__(self):
        check_fields(type(self), vars(self))


# ---------------------------------------------------------------- alignment

def _segment_transform(cloud_s: np.ndarray, a_s: np.ndarray, b_s: np.ndarray,
                       cloud_t: np.ndarray, a_t: np.ndarray, b_t: np.ndarray,
                       up: np.ndarray):
    """PCA-box scaling of the source segment, then the rigid map overlaying
    the joint pair.

    Roll about the segment axis is fixed by the world up direction (limbs
    rest on the table and the hinge axis is horizontal, so neither side is
    rolled about its own axis). The surface-centroid offset is only a
    fallback when the axis is parallel to up; the centroid of a thin
    half-shell sits too close to the axis to give a reliable roll.
    """
    if np.linalg.norm(b_s - a_s) < 1e-9 or np.linalg.norm(b_t - a_t) < 1e-9:
        raise DegenerateSegment("segment joints coincide")
    axes_s, ext_s = pca_obb(cloud_s)
    _, ext_t = pca_obb(cloud_t)
    # pca_obb's rank check keeps every extent positive
    factors = ext_t / ext_s
    centroid_s = cloud_s.mean(axis=0)

    def scale_map(p):
        rel = (np.atleast_2d(p) - centroid_s) @ axes_s
        return centroid_s + (rel * factors) @ axes_s.T

    s_scaled = scale_map(cloud_s)
    a_sc = scale_map(a_s)[0]
    b_sc = scale_map(b_s)[0]

    def frame(axis_vec, fallback_off):
        axis = axis_vec / np.linalg.norm(axis_vec)
        for ref in (up, fallback_off):
            u = ref - (ref @ axis) * axis
            n = np.linalg.norm(u)
            if n > 1e-6:
                return np.stack([axis, u / n, np.cross(axis, u / n)], axis=1)
        raise DegenerateSegment("cannot fix roll about the joint axis")

    f_s = frame(b_sc - a_sc, s_scaled.mean(axis=0) - a_sc)
    f_t = frame(b_t - a_t, cloud_t.mean(axis=0) - a_t)
    rotation = f_t @ f_s.T
    mid_s = (a_sc + b_sc) / 2.0
    mid_t = (a_t + b_t) / 2.0
    rigid = RigidTransform(rotation, mid_t - rotation @ mid_s)
    return rigid.apply(s_scaled), rigid, factors, scale_map


def initial_align(source: ArmObservation, target: ArmObservation,
                  up: np.ndarray = np.array([0.0, 0.0, 1.0])):
    """Per-segment joint overlay + PCA scaling of the source onto the target.

    Returns (aligned source observation, transforms dict, scales dict of
    per-principal-axis target/source extent ratios, point_maps dict) where
    point_maps carry the full scale+rigid map for each segment so co-located
    geometry (trajectories) can follow its segment.
    """
    transforms: dict[str, RigidTransform] = {}
    scales: dict[str, np.ndarray] = {}
    maps = {}
    aligned = {}
    spec = {
        "forearm": (source.forearm.points, source.wrist, source.elbow,
                    target.forearm.points, target.wrist, target.elbow),
        "upperarm": (source.upperarm.points, source.elbow, source.shoulder,
                     target.upperarm.points, target.elbow, target.shoulder),
    }
    up_v = np.asarray(up, dtype=float).reshape(3)
    for name, (cs, ja, jb, ct, ta, tb) in spec.items():
        pts, rigid, scale, scale_map = _segment_transform(cs, ja, jb, ct, ta, tb, up_v)
        aligned[name] = pts
        transforms[name] = rigid
        scales[name] = scale
        maps[name] = (lambda p, r=rigid, sm=scale_map: r.apply(sm(p)))

    wrist = maps["forearm"](source.wrist)[0]
    shoulder = maps["upperarm"](source.shoulder)[0]
    elbow = 0.5 * (maps["forearm"](source.elbow)[0] + maps["upperarm"](source.elbow)[0])
    obs = ArmObservation(PointCloud3(aligned["forearm"]), PointCloud3(aligned["upperarm"]),
                         wrist, elbow, shoulder)
    return obs, transforms, scales, maps


# ---------------------------------------------------------------- graph

def _bindings(cand_d: np.ndarray, cand_i: np.ndarray,
              found: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bind each row to its found candidates with convex weights
    (1 - d / d_max)^2, uniform where they all vanish.

    Rows list their candidates nearest first, with one column after the
    last one `found` (n, k) can mark, and each row finds at least one. d_max
    is the first candidate not found, or max(1.1 x the last found, 1e-12)
    when that one is at inf. Returns (bind_idx, bind_w), with bind_idx -1
    where a candidate is not found.
    """
    n, k = found.shape
    rows, n_found = np.arange(n), found.sum(axis=1)
    d_next = cand_d[rows, n_found]
    d_max = np.where(np.isfinite(d_next), d_next,
                     np.maximum(1.1 * cand_d[rows, n_found - 1], 1e-12))
    w = np.where(found, np.maximum(1.0 - cand_d[:, :k] / d_max[:, None], 0.0) ** 2, 0.0)
    flat = w.sum(axis=1) <= 0
    w[flat] = found[flat]
    return np.where(found, cand_i[:, :k], -1), w / w.sum(axis=1, keepdims=True)


def _proximity_graph(p: np.ndarray) -> sp.csr_matrix:
    """Symmetric k-NN graph of the points, weighted by distance.

    Coincident points are joined by explicit zero-weight edges, which
    dijkstra follows, so they share one node.
    """
    n = len(p)
    k_eff = min(KNN_K + 1, n)
    # k as a list keeps d and idx 2-D for a single point
    d, idx = cKDTree(p).query(p, k=[*range(1, k_eff + 1)])
    rows = np.repeat(np.arange(n), k_eff - 1)
    # `maximum` drops zeros, so a zero-length edge enters as the least
    # positive float and leaves as an explicit 0. No distance equals it: a
    # nonzero one is the root of a sum of squares >= 5e-324, so >= 2e-162.
    tiny = np.nextafter(0.0, 1.0)
    d[d == 0.0] = tiny
    graph = sp.coo_matrix((d[:, 1:].ravel(), (rows, idx[:, 1:].ravel())), shape=(n, n))
    graph = graph.maximum(graph.T).tocsr()
    graph.data[graph.data == tiny] = 0.0
    return graph


def _geodesic_pairs(graph: sp.csr_matrix, radius: float):
    """First-fit sampling: a vertex farther than `radius` from every earlier
    node becomes a node, whose geodesic search runs to twice the radius.
    Returns the node vertices and every (vertex, node, distance) pair the
    searches reached, sorted by vertex, then distance, then node."""
    min_dist = np.full(graph.shape[0], np.inf)
    node_vertices, verts, dists = [], [], []
    for v in range(graph.shape[0]):
        if min_dist[v] <= radius:
            continue
        dist = dijkstra(graph, indices=v, limit=2.0 * radius)
        np.minimum(min_dist, dist, out=min_dist)
        hit = np.flatnonzero(np.isfinite(dist)).astype(np.int32)
        node_vertices.append(v)
        verts.append(hit)
        dists.append(dist[hit])
    node = np.repeat(np.arange(len(verts), dtype=np.int32), [len(h) for h in verts])
    vert, dist = np.concatenate(verts), np.concatenate(dists)
    del verts, dists
    # lexsort is stable and the pairs arrive in node order, so equal
    # distances keep the lower node first
    order = np.lexsort((dist, vert))
    return np.asarray(node_vertices), vert[order], node[order], dist[order]


def build_graph(points: np.ndarray, radius: float) -> DeformationGraph:
    """Geodesic first-fit node sampling plus vertex bindings.

    Geodesic distances run over a k-NN proximity graph; disconnected
    components are sampled and bound independently.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(p)
    if not 0 < radius < np.inf:
        raise InvalidParams("radius must be finite and positive")
    if not n or p.shape[1] != 3:
        raise InvalidParams("points must be a non-empty (n, 3) array")
    node_arr, vert, node, dist = _geodesic_pairs(_proximity_graph(p), radius)
    m = len(node_arr)
    # nodes i and j are neighbours when either one's search reached the
    # other's vertex, symmetrized because the dijkstra limit can cut one way
    node_of = np.full(n, -1, dtype=np.int32)
    node_of[node_arr] = np.arange(m)
    other = node_of[vert]
    adj = np.zeros((m, m), dtype=bool)
    adj[node[other >= 0], other[other >= 0]] = True
    adj |= adj.T
    np.fill_diagonal(adj, False)
    neighbors = [np.flatnonzero(row).tolist() for row in adj]

    # each vertex's BINDING_K + 1 nearest nodes, ascending, placed by each
    # pair's rank among its vertex's pairs
    rank = np.arange(len(vert)) - np.searchsorted(vert, vert)
    kept = rank <= BINDING_K
    near_d = np.full((n, BINDING_K + 1), np.inf)
    near_i = np.full((n, BINDING_K + 1), -1)
    near_d[vert[kept], rank[kept]] = dist[kept]
    near_i[vert[kept], rank[kept]] = node[kept]

    # every vertex is a node or within radius of one, so each row finds one
    bind_idx, bind_w = _bindings(near_d, near_i, np.isfinite(near_d[:, :min(BINDING_K, m)]))
    return DeformationGraph(p[node_arr], np.tile(np.eye(3), (m, 1, 1)), np.zeros((m, 3)),
                            neighbors, radius, bind_idx, bind_w)


# ---------------------------------------------------------------- energy

def welsch(sq_dist: np.ndarray, c: float) -> np.ndarray:
    """Robust kernel on squared distances: c^2 (1 - exp(-s / c^2))."""
    return c * c * (1.0 - np.exp(-np.asarray(sq_dist, dtype=float) / (c * c)))


def _edges(graph: DeformationGraph) -> tuple[np.ndarray, np.ndarray]:
    """Directed edges (i, j), one per j in neighbors[i]."""
    ei = np.repeat(np.arange(graph.n_nodes), [len(nb) for nb in graph.neighbors])
    ej = np.array([j for nb in graph.neighbors for j in nb], dtype=int)
    return ei, ej


class _ResidualMap:
    """The residuals of one solve as functions of the packed unknowns x
    (see _pack).

    Deformed correspondences and edge residuals are affine in x, and the
    bindings, the correspondence subset and the edges never change within a
    solve, so they are one fixed sparse map: stacked, they are
    U @ x.reshape(-1, 3) + c. Each coordinate of a residual has the same
    coefficients, so U has one row per residual and four columns per node,
    one per row of the node's [A^T; t] block in x:
    at a slot node, the binding weight times (vertex - node) and the weight
    for an alignment row, (g_j - g_i, 1) at node i and (0, -1) at node j for
    edge (i, j). Only the per-node rigidity blocks are nonlinear.
    """

    def __init__(self, graph: DeformationGraph, verts: np.ndarray, corr_idx: np.ndarray):
        if len(verts) != len(graph.bind_idx):
            raise InvalidParams(f"{len(verts)} vertices for a graph bound to "
                                f"{len(graph.bind_idx)} points")
        g = graph.node_positions
        ei, ej = _edges(graph)
        bi = graph.bind_idx[corr_idx]
        (q, K), bw = bi.shape, graph.bind_w[corr_idx] * (bi >= 0)
        # rows are correspondences then edges; slots are their nodes (-1 pads)
        nodes = np.full((q + len(ei), max(K, 2)), -1)
        nodes[:q, :K] = bi
        nodes[q:, :2] = np.stack([ei, ej], axis=1)
        u = np.zeros(nodes.shape + (4,))
        u[:q, :K, :3] = bw[..., None] * (verts[corr_idx][:, None, :] - g[bi])
        u[:q, :K, 3] = bw
        u[q:, 0, :3] = g[ej] - g[ei]
        u[q:, 0, 3] = 1.0
        u[q:, 1, 3] = -1.0

        r, k = np.nonzero(nodes >= 0)
        # from COO, so each row lists its nodes in ascending order, as does Z
        self.matrix = sp.csr_matrix(
            (u[r, k].ravel(), (np.repeat(r, 4), (4 * nodes[r, k, None] + np.arange(4)).ravel())),
            shape=(len(nodes), 4 * graph.n_nodes))
        self.offset = np.concatenate([np.einsum("qk,qki->qi", bw, g[bi]), g[ei] - g[ej]])
        self.q = q

    def __call__(self, x: np.ndarray):
        """(deformed correspondences (q, 3), r_reg (e, 3), r_rot (m, 9),
        r_det (m,)) at x: an edge's predicted minus actual neighbour
        position, A^T A - I and det(A) - 1. The alignment residual is the
        deformed correspondences minus their targets."""
        mapped = self.matrix @ x.reshape(-1, 3) + self.offset
        A = _affines(x)
        ata = np.einsum("nij,nik->njk", A, A)
        return (mapped[:self.q], mapped[self.q:],
                (ata - np.eye(3)).reshape(-1, 9), np.linalg.det(A) - 1.0)


def _energy(blocks, alpha1: float, alpha2: float, welsch_c: float) -> EnergyBreakdown:
    r_ali, r_reg, r_rot, r_det = blocks
    return EnergyBreakdown(float(np.sum(welsch(np.sum(r_ali ** 2, axis=1), welsch_c))),
                           float(np.sum(r_reg ** 2)),
                           float(np.sum(r_rot ** 2) + np.sum(r_det ** 2)), alpha1, alpha2)


def energy(graph: DeformationGraph, vertices: np.ndarray,
           corr_idx: np.ndarray, corr_targets: np.ndarray,
           alpha1: float, alpha2: float, welsch_c: float) -> EnergyBreakdown:
    """Alignment + neighbor-consistency + local-rigidity energy."""
    v = np.atleast_2d(np.asarray(vertices, dtype=float))
    deformed, *rest = _ResidualMap(graph, v, corr_idx)(_pack(graph))
    return _energy((deformed - corr_targets, *rest), alpha1, alpha2, welsch_c)


# ---------------------------------------------------------------- solver

# the rigidity Jacobian d (A^T A)_ab / d A_cd = delta_ad A_cb + delta_bd A_ca
# is linear in A: row k of this map is the Jacobian at the k-th unit affine,
# so A.reshape(m, 9) @ _ROT_MAP is the (m, 9 * 9) Jacobian. Its entries are
# 0, 1 and 2, so each product entry is one entry of A, or twice one, exactly.
_ROT_MAP = (np.einsum("ad,kcb->kabcd", np.eye(3), np.eye(9).reshape(9, 3, 3))
            + np.einsum("bd,kca->kabcd", np.eye(3), np.eye(9).reshape(9, 3, 3))).reshape(9, 81)


def _rigidity_jacobians(affines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node Jacobians of A^T A - I, (m, 9, 9), and of det A, (m, 9),
    with respect to A.ravel()."""
    m = len(affines)
    j_rot = (affines.reshape(m, 9) @ _ROT_MAP).reshape(m, 9, 9)
    # d det / d A[i, :] = A[i+1, :] x A[i+2, :] (rows mod 3); entry j is
    # A[i+1, j+1] A[i+2, j+2] - A[i+1, j+2] A[i+2, j+1] (columns mod 3),
    # read from A with its first two rows and columns appended
    a = np.concatenate([affines, affines[:, :2]], axis=1)
    a = np.concatenate([a, a[:, :, :2]], axis=2)
    return j_rot, (a[:, 1:4, 1:4] * a[:, 2:5, 2:5]
                   - a[:, 1:4, 2:5] * a[:, 2:5, 1:4]).reshape(m, 9)


# where x keeps a node's unknowns in the band's (A.ravel(), t) order,
# as offsets into the node's 12 entries
_BAND_ORDER = np.array([0, 3, 6, 1, 4, 7, 2, 5, 8, 9, 10, 11])


class _BandedNormalEquations:
    """Gauss-Newton normal equations of one solve, H = J^T J, in lower
    banded storage under a reverse Cuthill-McKee order of H's 12 x 12
    node-pair blocks.

    The alignment and edge rows of J are the solve's fixed residual map U,
    each times the square root of the row's weight: the Welsch IRLS weight
    exp(-|r|^2 / c^2) for alignment (frozen per step, so the step descends
    the robust energy), alpha1 for edges. That part of H is U^T diag(w) U
    in each coordinate a: its entry (j, k) couples the unknowns 3j + a and
    3k + a of x. The per-node rigidity blocks come from A. The order comes
    from the nodes that share a residual, plus each node with itself; the
    band holds each node's unknowns in (A.ravel(), t) order.

    H is factored by banded Cholesky on the first step of a solve, and
    later steps reuse that factor across outer iterations: each solves
    H_0 delta = -g with the gradient g at the current point and H_0 from an
    earlier point of the solve. H_0 is positive definite, so delta still
    descends (Yao et al., "Quasi-Newton Solver for Robust Non-Rigid
    Registration", CVPR 2020, keep one fixed factor of this energy the same
    way). Once a kept factor's full step fails to lower the energy, `solve`
    refactors H at the current point and keeps that factor instead.
    """

    def __init__(self, residual_map: _ResidualMap):
        self.matrix = u = residual_map.matrix
        # U^T in rows, each listing its residuals in ascending order: the
        # gradient of every step, and the left factor of U^T W U
        self.matrix_t = u.T.tocsr()
        m = u.shape[1] // 4
        self.n = n = 12 * m
        # nodes that share a residual, and each node with itself (rigidity),
        # in canonical CSR: the RCM order breaks ties by index order
        slots = sp.csr_matrix((np.ones(u.nnz), u.indices // 4, u.indptr), shape=(u.shape[0], m))
        adj = (slots.T @ slots + sp.identity(m)).tocsr()
        adj.sum_duplicates()
        order = reverse_cuthill_mckee(adj, symmetric_mode=True)
        self.perm = (12 * order[:, None] + _BAND_ORDER).ravel()
        self.pos = np.empty(n, dtype=int)
        self.pos[self.perm] = np.arange(n)
        # a residual at nodes i and j couples (A[a, :], t[a]) at i with the
        # same four unknowns at j, the farthest apart in the band being
        # A[0, 0] and t[0]: 9
        rank = self.pos[::12] // 12
        adj = adj.tocoo()
        self.bandwidth = 12 * int(np.max(rank[adj.row] - rank[adj.col])) + 9
        self.factor = None

    def step(self, blocks, affines: np.ndarray, params: SolveParams,
             fresh: bool) -> np.ndarray:
        """Damped Gauss-Newton step from the residual blocks at the current
        parameters. With `fresh`, H is built and factored here first;
        otherwise the factor kept from the last fresh step is reused.
        Raises np.linalg.LinAlgError if H is not positive definite."""
        r_ali, r_reg, r_rot, r_det = blocks
        m = len(affines)
        weight = np.concatenate([np.exp(-np.sum(r_ali ** 2, axis=1) / params.welsch_c ** 2),
                                 np.full(len(r_reg), params.alpha1)])
        res = np.concatenate([r_ali, r_reg])
        grad = (self.matrix_t @ (weight[:, None] * res)).ravel()

        j_rot, j_det = _rigidity_jacobians(affines)
        # over A.ravel(), so transposed into x's A^T rows
        grad.reshape(m, 4, 3)[:, :3] += params.alpha2 * (
            np.einsum("nri,nr->ni", j_rot, r_rot)
            + j_det * r_det[:, None]).reshape(m, 3, 3).transpose(0, 2, 1)

        if fresh:
            self.factor = None  # free the old factor before the new band exists
            # U^T (W U) sums each entry's terms u_rj (w_r u_rk) over its
            # residuals in ascending order, the terms and order of the
            # 3R x 12m form; W scales a copy of U's data because a product
            # with sp.diags would list the rows in another order
            wu = self.matrix.copy()
            # a huge alpha1 or alpha2 overflows to inf, which cholesky_banded
            # rejects
            with np.errstate(over="ignore"):
                wu.data *= np.repeat(weight, np.diff(wu.indptr))
                h_rot = params.alpha2 * (np.einsum("nri,nrj->nij", j_rot, j_rot)
                                         + j_det[:, :, None] * j_det[:, None, :])
            h = (self.matrix_t @ wu).tocoo()
            del wu
            # band entry (d, c) sits at c * (bw + 1) + d of a Fortran-ordered
            # (bw + 1, n) array, the layout LAPACK factors in place
            flat = np.zeros(self.n * (self.bandwidth + 1))
            for a in range(3):
                # entry (j, k) of U^T W U is H's entry (3k + a, 3j + a)
                r = self.pos[3 * h.col + a]
                c = self.pos[3 * h.row + a]
                lower = r >= c
                flat[c[lower] * (self.bandwidth + 1) + (r - c)[lower]] = h.data[lower]
            band = flat.reshape(self.n, self.bandwidth + 1).T
            # only each rigidity block's 9 x 9 affine part: its translation
            # rows would reach past the band
            i, j = np.tril_indices(9)
            band[i - j, self.pos[::12, None] + j] += h_rot[:, i, j]
            band[0] += LEVENBERG * max(band[0].max(), 1.0)
            try:
                self.factor = cholesky_banded(band, overwrite_ab=True, lower=True)
            except np.linalg.LinAlgError:
                raise  # H is not positive definite, which solve handles
            except ValueError as exc:  # cholesky_banded's own finiteness check
                raise NonFiniteEnergy(f"non-finite normal equations: {exc}") from exc
        delta = np.empty(self.n)
        # the factor's input was checked by cholesky_banded, and solve
        # rejects a non-finite delta
        delta[self.perm] = cho_solve_banded((self.factor, True), -grad[self.perm],
                                            check_finite=False)
        return delta


def _pack(graph: DeformationGraph) -> np.ndarray:
    """The solve's unknowns x: x.reshape(m, 4, 3)[n] is node n's A^T
    stacked on its t, the layout U multiplies."""
    return np.concatenate([graph.affines.transpose(0, 2, 1), graph.translations[:, None]],
                          axis=1).ravel()


def _affines(x: np.ndarray) -> np.ndarray:
    """The (m, 3, 3) affines of x, as a C-ordered copy: einsum sums a
    transposed view in another order."""
    return x.reshape(-1, 4, 3)[:, :3].transpose(0, 2, 1).copy()


def _unpack(graph: DeformationGraph, x: np.ndarray) -> None:
    graph.affines = _affines(x)
    graph.translations = x.reshape(-1, 4, 3)[:, 3].copy()


def solve(graph: DeformationGraph, vertices: np.ndarray, target: np.ndarray,
          params: SolveParams = SolveParams()):
    """Alternate closest-point correspondences with damped Gauss-Newton steps.

    Returns (graph, history) where history is the accepted-step energy trace;
    it is monotone non-increasing because correspondence updates only shrink
    the alignment term and steps are accepted only on decrease. Every
    evaluation goes through the solve's one residual map; the graph takes
    the solution when the solve ends.
    """
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    tgt = np.atleast_2d(np.asarray(target, dtype=float))
    if not tgt.size:
        raise InvalidParams("empty target")
    if not (np.all(np.isfinite(verts)) and np.all(np.isfinite(tgt))):
        raise NonFiniteEnergy("non-finite input points")

    n = len(verts)
    stride = max(1, n // params.max_correspondences)
    corr_idx = np.arange(0, n, stride)
    tree = cKDTree(tgt)
    residual_map = _ResidualMap(graph, verts, corr_idx)
    normal = _BandedNormalEquations(residual_map)

    def closest_targets():
        # the deformed correspondences of the last accepted evaluation
        return tgt[tree.query(mapped[0])[1]]

    def with_targets(evaluation):
        """A map evaluation's residual blocks against the current targets,
        and their energy."""
        blocks = (evaluation[0] - targets, *evaluation[1:])
        return blocks, _energy(blocks, params.alpha1, params.alpha2, params.welsch_c).total

    def take_step(fresh):
        """One step and its line search; True once a trial lowers the
        energy, False if the step is not finite or its trials fail: 30
        halvings with a fresh factor, the full step alone with a kept one."""
        nonlocal x, mapped, blocks, e_current
        delta = normal.step(blocks, _affines(x), params, fresh)
        if not np.all(np.isfinite(delta)):
            return False
        alpha = 1.0
        for _ in range(30 if fresh else 1):
            x_trial = x + alpha * delta
            trial = residual_map(x_trial)
            trial_blocks, e_new = with_targets(trial)
            if e_new < e_current - 1e-15:
                x, mapped, blocks, e_current = x_trial, trial, trial_blocks, e_new
                history.append(e_current)
                return True
            alpha *= 0.5
        return False

    x = _pack(graph)
    mapped = residual_map(x)
    targets = closest_targets()
    blocks, e_current = with_targets(mapped)
    history = [e_current]

    for outer in range(params.max_outer):
        e_outer_start = e_current
        if outer > 0:
            targets = closest_targets()
            blocks, e_current = with_targets(mapped)
            history.append(e_current)

        for _ in range(MAX_INNER):
            # H is factored on the solve's first step only; a kept factor's
            # step that is not finite or fails at full length is retried once
            # with H factored here, so only a fresh factor's failure ends the
            # inner loop
            fresh = normal.factor is None
            try:
                if not (take_step(fresh) or (not fresh and take_step(True))):
                    break
            except np.linalg.LinAlgError:
                break

        if e_outer_start <= 0:
            break
        if (e_outer_start - e_current) / max(e_outer_start, 1e-30) < params.tol:
            break

    _unpack(graph, x)
    return graph, history


# ---------------------------------------------------------------- transfer

def transfer_trajectory(traj: ScanTrajectory, graph: DeformationGraph,
                        target: PointCloud3, up: np.ndarray) -> ScanTrajectory:
    """Deform the planned trajectory through the graph and attach probe poses."""
    moved = graph.deform(traj.surface_points, *graph.bind(traj.surface_points))
    return attach_probe_poses(ScanTrajectory(moved, traj.centerline_indices), target, up)


def attach_probe_poses(traj: ScanTrajectory, target: PointCloud3,
                       up: np.ndarray) -> ScanTrajectory:
    """Probe poses at the trajectory's points on the target surface.

    Probe z points into the skin, against the normal of each station's skin
    plane within NORMAL_REACH mm (`skin_planes`); probe x follows the scan
    direction, so the long probe axis (y) stays perpendicular to it.
    """
    pts = traj.surface_points
    up = unit_up(up)
    z_axes = skin_planes(target, pts, up, NORMAL_REACH)[1] - up

    n = len(pts)
    tangents = np.gradient(pts, axis=0) if n > 1 else np.array([[1.0, 0.0, 0.0]])
    poses = []
    for i in range(n):
        z = z_axes[i] / np.linalg.norm(z_axes[i])
        tan = tangents[i]
        x = tan - (tan @ z) * z
        nx = np.linalg.norm(x)
        if nx < 1e-9:
            x = np.array([1.0, 0.0, 0.0]) - z[0] * z
            nx = np.linalg.norm(x)
        x = x / nx
        y = np.cross(z, x)
        poses.append(RigidTransform(np.stack([x, y, z], axis=1), pts[i]))
    return ScanTrajectory(pts, traj.centerline_indices.copy(), poses)
