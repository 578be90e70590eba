"""Builders that construct :class:`~repro.graph.bipartite.BipartiteGraph` objects.

All builders deduplicate parallel edges, drop self-inconsistencies and sort
adjacency lists, so the resulting CSR structure is canonical: two graphs with
the same edge set produce bit-identical arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = [
    "from_edges",
    "from_dense",
    "from_scipy_sparse",
    "from_networkx",
    "from_biadjacency",
    "empty_graph",
]


def _csr_from_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    n_rows: int,
    n_cols: int,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Build (col_ptr, col_ind, row_ptr, row_ind, weights) from deduplicated pairs.

    ``weights`` (one entry per input pair) comes back deduplicated in
    column-CSR order; parallel edges keep the maximum weight.

    Each pair is encoded as one int64 key (``col * n_rows + row`` for the
    column side, ``row * n_cols + col`` for the row side), so a plain sort
    orders and groups the pairs; this needs ``n_rows * n_cols < 2**63``.
    """
    if n_rows * n_cols >= 2**63:
        raise ValueError(
            f"graph shape {n_rows} x {n_cols} is too large: "
            "n_rows * n_cols must be below 2**63"
        )
    if len(rows) == 0:
        col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        out_weights = np.empty(0, dtype=np.float64) if weights is not None else None
        return col_ptr, empty, row_ptr, empty.copy(), out_weights

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    key = cols * n_rows + rows
    if weights is None:
        key = np.sort(key)
    else:
        # The stable order keeps duplicates in input order, as the
        # reduction below has always seen them.
        order = np.argsort(key, kind="stable")
        key = key[order]
        weights = np.asarray(weights, dtype=np.float64)[order]
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    out_weights = None
    if weights is not None:
        # Reduce each run of duplicates to its maximum weight.
        out_weights = np.maximum.reduceat(weights, np.flatnonzero(keep))
    cols, col_ind = np.divmod(key[keep], n_rows)

    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])

    rows_t, row_ind = np.divmod(np.sort(col_ind * n_cols + cols), n_cols)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows_t, minlength=n_rows), out=row_ptr[1:])

    return col_ptr, col_ind, row_ptr, row_ind, out_weights


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    n_rows: int | None = None,
    n_cols: int | None = None,
    name: str = "bipartite",
    weights: Iterable[float] | np.ndarray | None = None,
) -> BipartiteGraph:
    """Build a graph from an iterable of ``(row, col)`` pairs.

    Parameters
    ----------
    edges:
        Iterable of ``(row, col)`` index pairs, or an ``(k, 2)`` integer array.
    n_rows, n_cols:
        Vertex counts; inferred as ``max index + 1`` when omitted.
    name:
        Stored on the resulting graph; used in benchmark reports.
    weights:
        Optional edge weights, one per input pair.  Parallel edges are
        deduplicated keeping the *maximum* weight (for matching, only the
        best parallel edge can ever be used).

    Returns
    -------
    BipartiteGraph

    Raises
    ------
    ValueError
        If an edge references a vertex outside ``[0, n_rows) x [0, n_cols)``,
        indices are negative, or ``weights`` does not have one entry per pair.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edges must be an iterable of (row, col) pairs, got shape {arr.shape}")
    if weights is not None:
        weights = np.asarray(
            list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64
        )
        if weights.shape != (len(arr),):
            raise ValueError(
                f"weights must have one entry per edge pair ({len(arr)}), "
                f"got shape {weights.shape}"
            )
    rows = arr[:, 0]
    cols = arr[:, 1]
    if len(rows) and (rows.min() < 0 or cols.min() < 0):
        raise ValueError("edge indices must be non-negative")
    inferred_rows = int(rows.max()) + 1 if len(rows) else 0
    inferred_cols = int(cols.max()) + 1 if len(cols) else 0
    n_rows = inferred_rows if n_rows is None else int(n_rows)
    n_cols = inferred_cols if n_cols is None else int(n_cols)
    if inferred_rows > n_rows or inferred_cols > n_cols:
        raise ValueError(
            f"edge indices exceed declared shape ({n_rows}, {n_cols}): "
            f"max row {inferred_rows - 1}, max col {inferred_cols - 1}"
        )
    col_ptr, col_ind, row_ptr, row_ind, col_weights = _csr_from_pairs(
        rows, cols, n_rows, n_cols, weights
    )
    return BipartiteGraph(
        n_rows=n_rows,
        n_cols=n_cols,
        col_ptr=col_ptr,
        col_ind=col_ind,
        row_ptr=row_ptr,
        row_ind=row_ind,
        name=name,
        weights=col_weights,
    )


def from_dense(matrix: Sequence[Sequence[float]] | np.ndarray, name: str = "dense") -> BipartiteGraph:
    """Build a graph from a dense biadjacency matrix (non-zero entries become edges)."""
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"biadjacency matrix must be 2-D, got {mat.ndim}-D")
    rows, cols = np.nonzero(mat)
    return from_edges(
        np.column_stack([rows, cols]), n_rows=mat.shape[0], n_cols=mat.shape[1], name=name
    )


def from_biadjacency(matrix, name: str = "biadjacency") -> BipartiteGraph:
    """Build a graph from any dense or scipy-sparse biadjacency matrix."""
    from scipy import sparse

    if sparse.issparse(matrix):
        return from_scipy_sparse(matrix, name=name)
    return from_dense(matrix, name=name)


def from_scipy_sparse(matrix, name: str = "scipy") -> BipartiteGraph:
    """Build a graph from a ``scipy.sparse`` biadjacency matrix.

    The sparsity pattern defines the edges; explicit zeros are dropped.
    """
    from scipy import sparse

    if not sparse.issparse(matrix):
        raise TypeError(f"expected a scipy sparse matrix, got {type(matrix).__name__}")
    coo = matrix.tocoo()
    mask = coo.data != 0
    edges = np.column_stack([coo.row[mask], coo.col[mask]])
    return from_edges(edges, n_rows=coo.shape[0], n_cols=coo.shape[1], name=name)


def from_networkx(graph, row_nodes=None, name: str = "networkx") -> BipartiteGraph:
    """Build a graph from a bipartite :class:`networkx.Graph`.

    Parameters
    ----------
    graph:
        An undirected networkx graph whose vertex set splits into two sides.
    row_nodes:
        The nodes forming the row side.  When omitted, nodes carrying
        ``bipartite=0`` are used (the networkx convention).
    """
    import networkx as nx

    if row_nodes is None:
        row_nodes = [node for node, data in graph.nodes(data=True) if data.get("bipartite") == 0]
        if not row_nodes and graph.number_of_nodes():
            raise ValueError(
                "row_nodes not given and no nodes carry the 'bipartite=0' attribute"
            )
    row_nodes = list(row_nodes)
    row_set = set(row_nodes)
    col_nodes = [node for node in graph.nodes if node not in row_set]
    if not nx.is_bipartite(graph):
        raise ValueError("graph is not bipartite")
    row_index = {node: i for i, node in enumerate(row_nodes)}
    col_index = {node: i for i, node in enumerate(col_nodes)}
    edges = []
    for a, b in graph.edges():
        if a in row_index and b in col_index:
            edges.append((row_index[a], col_index[b]))
        elif b in row_index and a in col_index:
            edges.append((row_index[b], col_index[a]))
        else:
            raise ValueError(f"edge ({a!r}, {b!r}) does not cross the declared bipartition")
    return from_edges(edges, n_rows=len(row_nodes), n_cols=len(col_nodes), name=name)


def empty_graph(n_rows: int, n_cols: int, name: str = "empty") -> BipartiteGraph:
    """A graph with the given shape and no edges."""
    return from_edges(np.empty((0, 2), dtype=np.int64), n_rows=n_rows, n_cols=n_cols, name=name)
