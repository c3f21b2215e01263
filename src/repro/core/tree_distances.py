"""Algorithm 1: private distances on trees (Section 4.1).

The single-source release (Theorem 4.1) recursively partitions the tree
into subtrees of at most half the size, as in Figure 1: at each step it
finds the splitter ``v*`` (the unique vertex whose subtree exceeds half
the current piece while each child subtree does not), releases noisy
distances ``d(root, v*)`` and ``w(v*, v_i)`` for each child ``v_i``, and
recurses into the child subtrees ``T_1..T_t`` and the remainder ``T_0``.

Privacy argument (from the paper): the pieces at one recursion level are
vertex-disjoint and the queries within a piece touch disjoint edge sets,
so the queries of each level form a sensitivity-1 vector; with ``D``
levels the whole query vector has sensitivity ``D``, and adding
``Lap(D/eps)`` noise to every query is one Laplace-mechanism release
(eps-DP).  The recursion structure depends only on the *public*
topology, so ``D`` itself is public and is computed by a dry structural
pass before any noise is drawn.

Accuracy: every root-to-vertex distance is a sum of at most ``2D`` noisy
queries, so Lemma 3.1 gives error ``O(log^1.5 V * log(1/gamma))/eps``
per distance (Theorem 4.1).  All-pairs distances follow from the LCA
identity ``d(x,y) = d(v0,x) + d(v0,y) - 2 d(v0, lca(x,y))``
(Theorem 4.2) at no extra privacy cost.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..dp.params import PrivacyParams
from ..exceptions import PrivacyError, VertexNotFoundError
from ..graphs.graph import Vertex, WeightedGraph
from ..graphs.tree import RootedTree
from ..rng import Rng

__all__ = [
    "TreeSingleSourceRelease",
    "TreeAllPairsRelease",
    "release_tree_single_source",
    "release_tree_all_pairs",
]


class _Piece:
    """One piece of the recursive partition: a connected subtree of the
    original tree, identified by its local root and vertex set."""

    __slots__ = ("root", "members")

    def __init__(self, root: Vertex, members: set) -> None:
        self.root = root
        self.members = members


class _RecursionPlan:
    """The public (data-independent) structure of Algorithm 1's
    recursion: for each level, the queries to release.

    Each query is either ``("root", piece_root, v_star)`` — the distance
    from the piece root to its splitter — or ``("edge", v_star, child)``
    — the weight of a splitter-to-child edge.  The plan is computed from
    topology alone, so the number of levels (= the query vector's
    sensitivity) is public.
    """

    def __init__(self, tree: RootedTree) -> None:
        self.levels: List[List[Tuple[str, Vertex, Vertex]]] = []
        self.splits: Dict[int, List[Tuple[_Piece, Vertex, List[_Piece]]]] = {}
        current = [
            _Piece(tree.root, set(tree.preorder()))
        ]
        depth = 0
        while current:
            queries: List[Tuple[str, Vertex, Vertex]] = []
            splits: List[Tuple[_Piece, Vertex, List[_Piece]]] = []
            next_level: List[_Piece] = []
            for piece in current:
                if len(piece.members) <= 1:
                    continue
                v_star = _find_splitter(tree, piece)
                queries.append(("root", piece.root, v_star))
                children_in = [
                    c for c in tree.children(v_star) if c in piece.members
                ]
                sub_pieces: List[_Piece] = []
                removed: set = set()
                for child in children_in:
                    queries.append(("edge", v_star, child))
                    members = _descendants_within(tree, child, piece.members)
                    removed |= members
                    sub_pieces.append(_Piece(child, members))
                t0 = _Piece(piece.root, piece.members - removed)
                splits.append((piece, v_star, sub_pieces))
                next_level.extend(sub_pieces)
                next_level.append(t0)
            if queries:
                self.levels.append(queries)
                self.splits[depth] = splits
                depth += 1
            current = next_level

    @property
    def depth(self) -> int:
        """The number of recursion levels ``D`` (the sensitivity of the
        full query vector)."""
        return len(self.levels)


def _find_splitter(tree: RootedTree, piece: _Piece) -> Vertex:
    """The splitter ``v*`` of Algorithm 1 step 1, computed within the
    piece: subtree sizes are taken relative to the piece's members."""
    sizes = _sizes_within(tree, piece)
    half = len(piece.members) / 2.0
    v = piece.root
    while True:
        heavy = [
            c
            for c in tree.children(v)
            if c in piece.members and sizes[c] > half
        ]
        if not heavy:
            return v
        v = heavy[0]


def _sizes_within(tree: RootedTree, piece: _Piece) -> Dict[Vertex, int]:
    order = [v for v in tree.preorder() if v in piece.members]
    sizes: Dict[Vertex, int] = {}
    for v in reversed(order):
        sizes[v] = 1 + sum(
            sizes[c] for c in tree.children(v) if c in piece.members
        )
    return sizes


def _descendants_within(
    tree: RootedTree, start: Vertex, members: set
) -> set:
    result = set()
    stack = [start]
    while stack:
        v = stack.pop()
        result.add(v)
        stack.extend(c for c in tree.children(v) if c in members)
    return result


class TreeSingleSourceRelease:
    """Theorem 4.1's release: noisy distances from the root to every
    vertex of a tree, via Algorithm 1.  A negative or non-finite weight
    raises :class:`~repro.exceptions.WeightError` before any draw."""

    def __init__(self, tree: RootedTree, eps: float, rng: Rng) -> None:
        if eps <= 0:
            raise PrivacyError(f"eps must be positive, got {eps}")
        tree.graph.check_nonnegative()
        self._tree = tree
        self._params = PrivacyParams(eps)
        plan = _RecursionPlan(tree)
        self._depth = plan.depth
        # Scale = sensitivity / eps; sensitivity = number of levels.
        # Single-vertex trees release nothing.
        self._scale = max(plan.depth, 1) / eps
        self._estimates: Dict[Vertex, float] = {tree.root: 0.0}
        self._noise_terms: Dict[Vertex, int] = {tree.root: 0}
        self._num_queries = 0
        self._execute(plan, rng)

    def _execute(self, plan: _RecursionPlan, rng: Rng) -> None:
        tree = self._tree
        for depth in range(plan.depth):
            for piece, v_star, sub_pieces in plan.splits[depth]:
                base = self._estimates[piece.root]
                base_terms = self._noise_terms[piece.root]
                # d(root, v*) within the piece equals the difference of
                # original root distances, because the piece root is an
                # ancestor of every piece member.
                true_root_to_star = tree.distance_from_root(
                    v_star
                ) - tree.distance_from_root(piece.root)
                est_star = base + true_root_to_star + rng.laplace(self._scale)
                self._num_queries += 1
                star_terms = base_terms + 1
                if v_star not in self._estimates:
                    self._estimates[v_star] = est_star
                    self._noise_terms[v_star] = star_terms
                for sub in sub_pieces:
                    child = sub.root
                    edge_weight = tree.graph.weight(v_star, child)
                    est_child = (
                        est_star + edge_weight + rng.laplace(self._scale)
                    )
                    self._num_queries += 1
                    if child not in self._estimates:
                        self._estimates[child] = est_child
                        self._noise_terms[child] = star_terms + 1

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP)."""
        return self._params

    @property
    def tree(self) -> RootedTree:
        """The (public) rooted tree topology."""
        return self._tree

    @property
    def recursion_depth(self) -> int:
        """The number of recursion levels ``D`` — paper bound:
        ``<= log2 V`` up to rounding."""
        return self._depth

    @property
    def noise_scale(self) -> float:
        """The Laplace scale ``D/eps`` used per query."""
        return self._scale

    @property
    def num_queries(self) -> int:
        """Total noisy queries released — paper bound: ``<= 2V``."""
        return self._num_queries

    def distance_from_root(self, v: Vertex) -> float:
        """The released estimate of ``d_w(v0, v)``."""
        if v not in self._estimates:
            raise VertexNotFoundError(v)
        return self._estimates[v]

    def noise_terms(self, v: Vertex) -> int:
        """How many Laplace terms the estimate for ``v`` accumulated —
        paper bound: ``<= 2D`` (at most two per recursion level)."""
        if v not in self._noise_terms:
            raise VertexNotFoundError(v)
        return self._noise_terms[v]

    def all_distances(self) -> Dict[Vertex, float]:
        """Released estimates for every vertex."""
        return dict(self._estimates)


class TreeAllPairsRelease:
    """Theorem 4.2's release: all-pairs tree distances from a single
    single-source release plus the public LCA structure."""

    def __init__(self, tree: RootedTree, eps: float, rng: Rng) -> None:
        self._single = TreeSingleSourceRelease(tree, eps, rng)
        self._tree = tree

    @property
    def params(self) -> PrivacyParams:
        """The privacy guarantee (pure eps-DP; post-processing of the
        single-source release)."""
        return self._single.params

    @property
    def single_source(self) -> TreeSingleSourceRelease:
        """The underlying single-source release."""
        return self._single

    def distance(self, x: Vertex, y: Vertex) -> float:
        """The released estimate of ``d_w(x, y)`` via the LCA identity
        of Theorem 4.2."""
        z = self._tree.lca(x, y)
        return (
            self._single.distance_from_root(x)
            + self._single.distance_from_root(y)
            - 2.0 * self._single.distance_from_root(z)
        )

    def all_pairs(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """Released distances for every unordered pair."""
        vertices = self._tree.preorder()
        return {
            (x, y): self.distance(x, y)
            for i, x in enumerate(vertices)
            for y in vertices[i + 1 :]
        }


def _as_rooted(tree: WeightedGraph | RootedTree, root: Vertex | None) -> RootedTree:
    if isinstance(tree, RootedTree):
        return tree
    if root is None:
        root = next(iter(tree.vertices()))
    return RootedTree(tree, root)


def release_tree_single_source(
    tree: WeightedGraph | RootedTree,
    eps: float,
    rng: Rng,
    root: Vertex | None = None,
) -> TreeSingleSourceRelease:
    """Run Algorithm 1 (Theorem 4.1) on a tree.

    ``tree`` may be a :class:`RootedTree` or a tree-shaped
    :class:`WeightedGraph` (rooted at ``root``, defaulting to the first
    vertex — the choice is public and arbitrary, as in Theorem 4.2).
    """
    return TreeSingleSourceRelease(_as_rooted(tree, root), eps, rng)


def release_tree_all_pairs(
    tree: WeightedGraph | RootedTree,
    eps: float,
    rng: Rng,
    root: Vertex | None = None,
) -> TreeAllPairsRelease:
    """Run the Theorem 4.2 all-pairs release on a tree."""
    return TreeAllPairsRelease(_as_rooted(tree, root), eps, rng)
