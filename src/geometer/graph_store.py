"""Attributed-graph snapshots, the on-disk dataset format, and class-incremental
session streams built from a static labeled graph.

Dataset directory layout:
  features.bin  one of two little-endian layouts, told apart by the magic:
                dense: b"GFSC", u32 node count N, u32 feature dim d, then
                N*d float32 values, row-major;
                CSR: b"GFSR", u32 N, u32 d, u64 nonzero count nnz, then N+1
                int64 row pointers, nnz int32 column indices and nnz float32
                values.  The pointers run from 0 to nnz without decreasing,
                the columns lie in [0, d) and rise strictly within a row,
                and the values are finite and nonzero: the arrays
                ``csr_matrix`` makes of the dense matrix
  edges.tsv     one edge per line, two tab-separated node indices; directed
                duplicates (a,b)/(b,a) are merged on load, exact repeats are
                an error
  labels.tsv    one line per node: index TAB class-id, -1 meaning unlabeled

Split manifest: a JSON object with keys base_classes (at least two class
ids), sessions[].novel_classes (class ids), sessions[].supports (class id ->
node ids), k_shot (positive) and seed (non-negative), all 64-bit integers.

Feature storage follows one density rule (``_sparse_by_rule``: under a
quarter nonzero, and more than 65,536 entries), decided once per dataset
where its features enter.  A base whose whole matrix is sparse by the rule
holds its features only as CSR; any other base holds one dense read-only
array.  ``save_dataset`` writes the CSR layout exactly for a graph over a CSR
store, from its arrays.  ``load_graph`` applies the rule to either layout: it
reads a CSR file's three arrays whole, and builds the CSR of a sparse dense
file in fixed blocks, so it never holds the dense matrix of a sparse base.

Snapshots share storage.  A subgraph is a sorted row subset of the graph it
was first cut from: it keeps its own node ids, labels and edges, but reads
feature rows from that base graph's store, in the store's form:
``features_sparse(rows)`` gathers CSR rows of a CSR store (None over a dense
one) and ``feature_rows(rows)`` dense rows, both on every call.

A graph holds its node ids, labels and canonical edge array from the start;
its id index (``rows_of``, ``row_of``) and degrees are built on first use,
so the snapshots of a session stream that nobody queries cost only their row
subsets.

A ``SessionStream`` cuts its snapshots on first use, and reading its pools
cuts none, so ``prepare``, which needs the partition and the pools, cuts none.

``load_graph`` parses each TSV file with numpy in one pass and checks the
columns, duplicate edges, label ranges and coverage on the arrays.  Only a
file that the array parse or a check rejects, or one holding a byte outside
ASCII digits, signs, spaces, tabs and newlines, is read again line by line
with ``int()``: that scan raises the error naming the file and the offending
line (a byte that is not UTF-8, a class id past int64 and a self-loop
included), or reads the rare valid lines numpy refuses (whitespace-only
lines, digit underscores).
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .fileio import replacing

UNLABELED = -1
_DENSE_MAGIC = b"GFSC"
_CSR_MAGIC = b"GFSR"
# the header fields after each layout's magic: N and d, then nnz for CSR
_HEADER_FIELDS = {_DENSE_MAGIC: "<II", _CSR_MAGIC: "<IIQ"}
# rows per block of make_graph's finiteness check: it holds one block's bool
# mask at a time, not a mask of the whole matrix
_FINITE_CHECK_ROWS = 1024
# float32 values per block that load_graph reads from features.bin (1 MiB):
# the reader holds one block and its nonzero mask, never the whole matrix;
# save_dataset writes in blocks of the same size
_READ_BLOCK = 1 << 18
# the bytes a TSV file may hold for the array parse.  Over them numpy's
# integer parser and Python's int() read every line alike; any other byte
# (a non-ASCII digit, a control character) sends the file to the line scan
_TSV_BYTES = np.zeros(256, dtype=bool)
_TSV_BYTES[np.frombuffer(b"0123456789+- \t\r\n", dtype=np.uint8)] = True

__all__ = [
    "UNLABELED", "Graph", "ClassPartition", "SessionSpec", "SessionStream",
    "GraphStoreError", "DatasetFileMissingError", "DatasetFormatError",
    "DuplicateEdgeError", "SelfLoopError", "NodeIdError",
    "ClassOverlapError", "UnknownClassError", "InsufficientLabelsError", "ManifestError",
    "make_graph", "load_graph", "save_dataset", "build_session_stream",
    "save_manifest", "load_session_stream",
]


class GraphStoreError(Exception):
    """Base class for dataset and split failures."""


class DatasetFileMissingError(GraphStoreError):
    pass


class DatasetFormatError(GraphStoreError):
    pass


class DuplicateEdgeError(GraphStoreError):
    pass


class SelfLoopError(GraphStoreError):
    pass


class NodeIdError(GraphStoreError):
    pass


class ClassOverlapError(GraphStoreError):
    pass


class UnknownClassError(GraphStoreError):
    pass


class InsufficientLabelsError(GraphStoreError):
    pass


class ManifestError(GraphStoreError):
    pass


def _sparse_by_rule(nnz: int, size: int) -> bool:
    """Whether features with ``nnz`` nonzeros among ``size`` entries take the
    CSR path: under a quarter nonzero, and large enough to pay off."""
    return nnz / max(1, size) < 0.25 and size > 65536


class _FeatureStore:
    """One base graph's feature rows, shared by every subgraph cut from it.

    It holds exactly one form, decided once for the whole base where the
    features enter: the CSR matrix when the base is sparse by the rule,
    otherwise a dense read-only array.  Every snapshot reads its rows in that
    form.
    """

    __slots__ = ("shape", "_dense", "_csr")

    def __init__(self, features):
        self.shape = features.shape
        if sparse.issparse(features):
            self._dense, self._csr = None, features
        else:
            features.setflags(write=False)
            self._dense, self._csr = features, None

    def csr(self):
        return self._csr

    def dense_rows(self, rows) -> np.ndarray:
        """Dense float32 rows ``rows`` (an index array or a slice; None: all);
        the stored array or a view of it for all rows or a slice of a dense
        store, otherwise a fresh copy."""
        if self._dense is None:
            return (self._csr if rows is None else self._csr[rows]).toarray()
        return self._dense if rows is None else self._dense[rows]


def _find_sorted(ascending: np.ndarray, values: np.ndarray):
    """Each value's insertion position in ``ascending``, and whether it is there."""
    pos = np.searchsorted(ascending, values)
    if not len(ascending):
        return pos, np.zeros(len(values), dtype=bool)
    return pos, ascending.take(pos, mode="clip") == values


class Graph:
    """Immutable attributed graph snapshot.

    Node rows are 0..node_count-1; ``node_ids`` maps each row to a stable
    external identifier that survives subgraph extraction.  Edges are stored
    once per unordered pair over row indices, with no self-loops.  Feature
    rows live in a store shared with the base graph: ``rows`` (ascending)
    picks this graph's rows out of it, None meaning all of them in order.
    """

    __slots__ = ("node_ids", "labels", "edges", "_store", "_rows",
                 "_degrees", "_id_index", "_op_cache")

    def __init__(self, node_ids, labels, edges, store: _FeatureStore, rows=None):
        self.node_ids = node_ids
        self.labels = labels
        self.edges = edges
        self._store = store
        self._rows = rows
        # built on first use: a snapshot that is never queried never pays for them
        self._degrees = self._id_index = None
        self._op_cache = {}    # lazy derived structures (e.g. attention neighborhoods)
        for arr in (self.node_ids, self.labels, self.edges):
            arr.setflags(write=False)

    @property
    def features(self) -> np.ndarray:
        """Dense [node_count x feature_dim] float32 feature rows, read-only:
        ``feature_rows()``.  Only a base graph over a dense store returns its
        stored array; any other graph densifies a fresh copy at every call."""
        dense = self.feature_rows()
        dense.setflags(write=False)
        return dense

    def feature_rows(self, rows=None) -> np.ndarray:
        """Dense float32 feature rows ``rows`` of this graph (an index array or
        a slice; None: all), gathered from the base graph's store.  Only a base
        graph over a dense store hands out its stored array or a view of it,
        for all rows or a slice; otherwise the rows are a fresh copy."""
        if self._rows is not None:
            rows = self._rows if rows is None else self._rows[rows]
        return self._store.dense_rows(rows)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self._store.shape[1]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def row_of(self, node_id: int) -> int:
        return int(self.rows_of([node_id])[0])

    def rows_of(self, node_ids) -> np.ndarray:
        """Rows of the given node ids, in their order; ``NodeIdError`` names
        the first id that is not in the graph."""
        ids = np.asarray(node_ids, dtype=np.int64).reshape(-1)
        if self._id_index is None:
            order = np.argsort(self.node_ids, kind="stable")
            self._id_index = (self.node_ids[order], order)
        sorted_ids, order = self._id_index
        pos, found = _find_sorted(sorted_ids, ids)
        if not found.all():
            raise NodeIdError(f"unknown node id {ids[np.argmin(found)]}")
        return order[pos]

    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = np.bincount(self.edges.reshape(-1), minlength=self.node_count)
            self._degrees.setflags(write=False)
        return self._degrees

    def drop_caches(self) -> None:
        """Forget the op cache (the attention neighborhoods); the next read
        rebuilds it.  The small id index and degrees stay; the graph holds no
        feature rows to forget."""
        self._op_cache = {}

    def present_classes(self) -> np.ndarray:
        return np.unique(self.labels[self.labels != UNLABELED])

    def features_sparse(self, rows=None):
        """CSR feature rows ``rows`` of this graph, gathered from a CSR store at
        every call as ``feature_rows`` gathers dense ones; None over a dense store."""
        csr = self._store.csr()
        if csr is None:
            return None
        if self._rows is not None:
            rows = self._rows if rows is None else self._rows[rows]
        return csr if rows is None else csr[rows]


def make_graph(features, edge_pairs, labels, node_ids=None) -> Graph:
    """Validate and canonicalize raw parts into a Graph.

    ``features`` is a dense [N x d] array; the graph stores it as CSR when it
    is sparse by the rule (see the module docstring).  ``edge_pairs`` holds
    row-index pairs; orientation and unordered duplicates are normalized
    away.  Self-loops and out-of-range endpoints are rejected.
    """
    features = np.ascontiguousarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise DatasetFormatError(f"features must be 2-D, got shape {features.shape}")
    nnz = 0
    for lo in range(0, features.shape[0], _FINITE_CHECK_ROWS):
        block = features[lo:lo + _FINITE_CHECK_ROWS]
        if not np.isfinite(block).all():
            raise DatasetFormatError("features contain NaN or Inf")
        nnz += np.count_nonzero(block)
    if _sparse_by_rule(nnz, features.size):
        features = sparse.csr_matrix(features)
    return _assemble_graph(_FeatureStore(features), edge_pairs, labels, node_ids)


def _assemble_graph(store: _FeatureStore, edge_pairs, labels, node_ids=None) -> Graph:
    """``make_graph`` over features already validated into ``store``."""
    n = store.shape[0]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DatasetFormatError(f"labels length {labels.shape} does not match {n} nodes")
    if np.any(labels < UNLABELED):
        raise DatasetFormatError("labels must be >= 0 or the unlabeled sentinel -1")
    if node_ids is None:
        node_ids = np.arange(n, dtype=np.int64)
    else:
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.shape != (n,) or len(np.unique(node_ids)) != n:
            raise NodeIdError("node_ids must be unique and one per node")

    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs):
        if pairs.min() < 0 or pairs.max() >= n:
            bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
            raise NodeIdError(f"edge endpoint out of range: ({int(bad[0])}, {int(bad[1])})")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            bad = pairs[pairs[:, 0] == pairs[:, 1]][0]
            raise SelfLoopError(f"self-loop on node {int(bad[0])}")
        # one int64 key per unordered pair; its sorted order is (lo, hi) order.
        # np.sort and a neighbour mask: numpy's hashing np.unique is 10x slower
        keys = np.sort(np.minimum(pairs[:, 0], pairs[:, 1]) * n
                       + np.maximum(pairs[:, 0], pairs[:, 1]))
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        canon = np.stack(np.divmod(keys, n), axis=1)
    else:
        canon = np.empty((0, 2), dtype=np.int64)
    return Graph(node_ids, labels, canon, store)


# ---------------------------------------------------------------------------
# on-disk format

def load_graph(directory_path) -> Graph:
    """Read the canonical three-file dataset directory."""
    directory = Path(directory_path)
    feat_path = directory / "features.bin"
    edge_path = directory / "edges.tsv"
    label_path = directory / "labels.tsv"
    for p in (feat_path, edge_path, label_path):
        if not p.is_file():
            raise DatasetFileMissingError(f"missing dataset file: {p}")

    store = _read_features(feat_path)
    n = store.shape[0]
    pairs = _parse_columns(edge_path)
    scanned = pairs is None or not _distinct_in_range(pairs, n)
    if scanned:
        pairs = _scan_edges(edge_path)
    columns = _parse_columns(label_path)
    labels = None if columns is None else _labels_of(columns, n)
    if labels is None:
        labels = _scan_labels(label_path, n)
    if scanned:
        _check_endpoints(edge_path, pairs, n)
    return _assemble_graph(store, pairs, labels)


def _parse_columns(path: Path):
    """The [lines x 2] int64 array of a two-column TSV file, blank lines
    skipped; None when the array parse rejects the file."""
    raw = path.read_bytes()
    if not raw.strip():
        return np.empty((0, 2), dtype=np.int64)
    if not _TSV_BYTES[np.frombuffer(raw, dtype=np.uint8)].all():
        return None
    try:
        columns = np.loadtxt(raw.decode("ascii").splitlines(), dtype=np.int64,
                             delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None
    return columns if columns.shape[1] == 2 else None


def _distinct_in_range(pairs: np.ndarray, n: int) -> bool:
    """Whether every pair joins two distinct rows below ``n`` and no pair
    repeats."""
    if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
        return False
    if (pairs[:, 0] == pairs[:, 1]).any():
        return False
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    return not (keys[1:] == keys[:-1]).any()


def _labels_of(columns: np.ndarray, n: int):
    """The label array when ``columns`` labels every node once with a valid
    class id; None otherwise."""
    index, classes = columns[:, 0], columns[:, 1]
    if len(index) != n or (n and (index.min() < 0 or index.max() >= n)):
        return None
    filled = np.zeros(n, dtype=bool)
    filled[index] = True
    if not filled.all() or (classes < UNLABELED).any():
        return None
    labels = np.empty(n, dtype=np.int64)
    labels[index] = classes
    return labels


def _scan_lines(path: Path):
    """``(line number, fields)`` of each non-blank line of a two-column TSV
    file, lines cut as ``str.splitlines`` cuts them; raises at the first line
    that is not UTF-8 or does not hold two tab-separated fields."""
    text = path.read_bytes().decode("utf-8", errors="surrogateescape")
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if not line.isascii():
            try:
                line.encode("utf-8")            # an undecodable byte is an escaped surrogate
            except UnicodeEncodeError:
                raise DatasetFormatError(f"{path}:{ln}: not UTF-8 text") from None
        cols = line.split("\t")
        if len(cols) != 2:
            raise DatasetFormatError(f"{path}:{ln}: expected two columns, got {len(cols)}")
        yield ln, cols


def _scan_edges(path: Path) -> list:
    """The pairs of ``edges.tsv`` read line by line, as Python ints; raises at
    the first malformed line or repeated pair."""
    pairs = []
    seen = set()
    for ln, cols in _scan_lines(path):
        try:
            a, b = int(cols[0]), int(cols[1])
        except ValueError:
            raise DatasetFormatError(f"{path}:{ln}: non-integer node index") from None
        if (a, b) in seen:
            raise DuplicateEdgeError(f"{path}:{ln}: duplicate edge ({a}, {b})")
        seen.add((a, b))
        pairs.append((a, b))
    return pairs


def _check_endpoints(path: Path, pairs: list, n: int) -> None:
    """Raise at the line of the first scanned pair with an endpoint outside
    rows 0..n-1 (``NodeIdError``; an index past int64 included), then at the
    line of the first self-loop (``SelfLoopError``)."""

    def line(k: int) -> int:
        return [ln for ln, _ in _scan_lines(path)][k]

    for k, (a, b) in enumerate(pairs):
        if not (0 <= a < n and 0 <= b < n):
            raise NodeIdError(f"{path}:{line(k)}: edge endpoint out of range: ({a}, {b})")
    for k, (a, b) in enumerate(pairs):
        if a == b:
            raise SelfLoopError(f"{path}:{line(k)}: self-loop on node {a}")


def _scan_labels(path: Path, n: int) -> np.ndarray:
    """The labels of ``labels.tsv`` read line by line; raises at the first
    malformed line, or for the first node without a label line."""
    labels = np.full(n, UNLABELED, dtype=np.int64)
    filled = np.zeros(n, dtype=bool)
    for ln, cols in _scan_lines(path):
        try:
            idx, cls = int(cols[0]), int(cols[1])
        except ValueError:
            raise DatasetFormatError(f"{path}:{ln}: non-integer field") from None
        if not 0 <= idx < n:
            raise NodeIdError(f"{path}:{ln}: node index {idx} out of range")
        if filled[idx]:
            raise DatasetFormatError(f"{path}:{ln}: node {idx} labeled twice")
        if not UNLABELED <= cls < 2 ** 63:
            raise DatasetFormatError(f"{path}:{ln}: bad class id {cls}")
        filled[idx] = True
        labels[idx] = cls
    if not filled.all():
        missing = int(np.nonzero(~filled)[0][0])
        raise DatasetFormatError(f"{path}: node {missing} has no label line")
    return labels


def _read_into(fh, buffer: np.ndarray, path: Path) -> None:
    if fh.readinto(buffer) != buffer.nbytes:
        raise DatasetFormatError(f"{path}: payload ended early")


def _read_header(fh, path: Path) -> tuple:
    """The (rows, width, nonzeros) of an open ``features.bin``, nonzeros None
    in the dense layout, after checking its magic, a whole header, a positive
    width and the file length the header implies."""
    magic = fh.read(4)
    if magic not in _HEADER_FIELDS:
        raise DatasetFormatError(
            f"{path}: bad magic, expected {_DENSE_MAGIC!r} or {_CSR_MAGIC!r}")
    fields = _HEADER_FIELDS[magic]
    header = fh.read(struct.calcsize(fields))
    if len(header) != struct.calcsize(fields):
        raise DatasetFormatError(f"{path}: header ended early")
    n, d, *nnz = struct.unpack(fields, header)
    nnz = nnz[0] if nnz else None
    if d == 0:
        raise DatasetFormatError(f"{path}: feature dim must be positive")
    if nnz is None:
        payload, what = 4 * n * d, f"{n} x {d} floats"
    else:
        payload, what = 8 * (n + 1 + nnz), f"{n} x {d}, {nnz} nonzeros"
    expected = fh.tell() + payload
    length = os.fstat(fh.fileno()).st_size
    if length != expected:
        raise DatasetFormatError(
            f"{path}: payload length {length} does not match header "
            f"({what} -> {expected} bytes)")
    return n, d, nnz


def _read_csr(fh, path: Path, n: int, d: int, nnz: int) -> tuple:
    """The (data, indices, indptr) of a CSR-layout payload, read whole, after
    checking that they are what ``csr_matrix`` makes of a dense matrix: row
    pointers that run from 0 to nnz without decreasing, columns in [0, d)
    that rise strictly within a row, and finite nonzero values."""
    indptr = np.empty(n + 1, dtype="<i8")
    indices = np.empty(nnz, dtype="<i4")
    data = np.empty(nnz, dtype="<f4")
    for part in (indptr, indices, data):
        _read_into(fh, part, path)
    if indptr[0] != 0:
        raise DatasetFormatError(f"{path}: row pointers start at {indptr[0]}, expected 0")
    drops = np.flatnonzero(indptr[1:] < indptr[:-1])
    if len(drops):
        r = drops[0]
        raise DatasetFormatError(f"{path}: row pointers decrease after row {r} "
                                 f"({indptr[r]} then {indptr[r + 1]})")
    if indptr[-1] != nnz:
        raise DatasetFormatError(f"{path}: row pointers end at {indptr[-1]}, expected {nnz}")

    def row_of(k) -> int:
        return int(np.searchsorted(indptr, k, side="right")) - 1

    outside = np.flatnonzero((indices < 0) | (indices >= d))
    if len(outside):
        k = outside[0]
        raise DatasetFormatError(f"{path}: column index {indices[k]} of row {row_of(k)} "
                                 f"is outside [0, {d})")
    # entry k+1 must lie right of entry k unless a row starts at k+1
    unsorted = indices[1:] <= indices[:-1]
    starts = indptr[1:-1]
    unsorted[starts[(starts > 0) & (starts < nnz)] - 1] = False
    if unsorted.any():
        k = int(np.argmax(unsorted)) + 1
        raise DatasetFormatError(f"{path}: columns of row {row_of(k)} do not rise strictly "
                                 f"({indices[k - 1]} then {indices[k]})")
    if not np.isfinite(data).all():
        raise DatasetFormatError(f"{path}: features contain NaN or Inf")
    zeros = np.flatnonzero(data == 0)
    if len(zeros):
        raise DatasetFormatError(f"{path}: row {row_of(zeros[0])} stores a zero value")
    return (data.astype(np.float32, copy=False), indices.astype(np.int32, copy=False),
            indptr.astype(np.int64, copy=False))


def _read_features(path: Path) -> _FeatureStore:
    """The feature store of ``features.bin``, CSR when the matrix is sparse by
    the rule and dense otherwise, whichever layout the file has.  A CSR file
    gives its arrays to the store; a dense one is read in blocks, into CSR
    block by block while it stays sparse by the rule."""
    with open(path, "rb") as fh:
        n, d, nnz = _read_header(fh, path)
        if nnz is not None:
            csr = sparse.csr_matrix(_read_csr(fh, path, n, d, nnz), shape=(n, d), copy=False)
            return _FeatureStore(csr if _sparse_by_rule(nnz, n * d) else csr.toarray())
        rows_per_block = max(1, _READ_BLOCK // d)
        if _sparse_by_rule(0, n * d):       # large enough to be sparse by the rule
            payload = fh.tell()
            csr = _read_sparse_features(fh, n, d, rows_per_block, path)
            if csr is not None:
                return _FeatureStore(csr)
            fh.seek(payload)
        dense = np.empty((n, d), dtype="<f4")
        for lo in range(0, n, rows_per_block):
            block = dense[lo:lo + rows_per_block]
            _read_into(fh, block, path)
            if not np.isfinite(block).all():
                raise DatasetFormatError(f"{path}: features contain NaN or Inf")
    return _FeatureStore(dense.astype(np.float32, copy=False))


def _read_sparse_features(fh, n: int, d: int, rows_per_block: int, path: Path):
    """CSR of a dense-layout payload read through one reusable block, equal to
    ``csr_matrix`` of the dense matrix (-0.0 counts as zero); None, after a
    partial read, as soon as the nonzeros make the matrix dense by the rule."""
    buffer = np.empty(rows_per_block * d, dtype="<f4")
    row_ends = np.arange(1, rows_per_block + 1) * d    # flat end of each row of a block
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, data = [], []
    nnz = 0
    for lo in range(0, n, rows_per_block):
        rows = min(rows_per_block, n - lo)
        block = buffer[:rows * d]
        _read_into(fh, block, path)
        flat = np.flatnonzero(block != 0)
        if not _sparse_by_rule(nnz + len(flat), n * d):
            return None
        values = block[flat]
        if not np.isfinite(values).all():       # NaN and Inf are nonzero, so all are here
            raise DatasetFormatError(f"{path}: features contain NaN or Inf")
        indptr[lo + 1:lo + rows + 1] = nnz + np.searchsorted(flat, row_ends[:rows])
        nnz += len(flat)
        indices.append((flat % d).astype(np.int32))
        data.append(values.astype(np.float32))
    return sparse.csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                             shape=(n, d), copy=False)


def save_dataset(g: Graph, directory_path) -> None:
    """Reference writer for the canonical format (one line per undirected edge).

    A graph over a CSR store writes the CSR layout from its arrays; any other
    writes the dense layout in blocks of the reader's size.  Neither holds the
    dense matrix of a CSR store, and each file replaces its old version only
    once whole.
    """
    directory = Path(directory_path)
    directory.mkdir(parents=True, exist_ok=True)
    n, d = g.node_count, g.feature_dim
    csr = g.features_sparse()
    with replacing(directory / "features.bin", "wb") as fh:
        if csr is not None:
            fh.write(_CSR_MAGIC + struct.pack(_HEADER_FIELDS[_CSR_MAGIC], n, d, csr.nnz))
            for part, dtype in ((csr.indptr, "<i8"), (csr.indices, "<i4"), (csr.data, "<f4")):
                fh.write(np.ascontiguousarray(part, dtype=dtype))
        else:
            fh.write(_DENSE_MAGIC + struct.pack(_HEADER_FIELDS[_DENSE_MAGIC], n, d))
            rows_per_block = max(1, _READ_BLOCK // d)
            for lo in range(0, n, rows_per_block):
                rows = slice(lo, lo + rows_per_block)
                fh.write(np.ascontiguousarray(g.feature_rows(rows), dtype="<f4"))
    with replacing(directory / "edges.tsv") as fh:
        for a, b in g.edges:
            fh.write(f"{a}\t{b}\n")
    with replacing(directory / "labels.tsv") as fh:
        for i, cls in enumerate(g.labels):
            fh.write(f"{i}\t{cls}\n")


# ---------------------------------------------------------------------------
# session streams

def _row_subset(g: Graph, rows: np.ndarray) -> Graph:
    """Subgraph on ascending, distinct graph rows ``rows``, sharing ``g``'s
    feature storage (see the module docstring).

    The parts need no validation again: the row remap is increasing, so the
    kept edges stay canonical (low end first) and in sorted order.
    """
    remap = np.full(g.node_count, -1, dtype=np.int64)
    remap[rows] = np.arange(len(rows))
    mask = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
    store_rows = rows if g._rows is None else g._rows[rows]
    return Graph(g.node_ids[rows], g.labels[rows], remap[g.edges[mask]], g._store, store_rows)


@dataclass(frozen=True)
class SessionSpec:
    novel_classes: tuple
    supports: dict  # class id -> tuple of support node ids


@dataclass(frozen=True)
class ClassPartition:
    base_classes: tuple
    sessions: tuple  # of SessionSpec


@dataclass(frozen=True)
class SessionStream:
    """Base stage plus streaming sessions over cumulative graph snapshots.

    This class alone decides which labeled nodes training may read at a
    stage (``train_pools``) and which ones scoring reads (``test_pools``).
    Snapshots are cut on first use; the pools, read from the labels, cut none.
    """

    partition: ClassPartition
    k_shot: int
    seed: int
    _graph: Graph = field(repr=False, compare=False)    # the graph every stage is cut from
    _pools: dict = field(repr=False, compare=False)     # see ``_class_pools``

    @cached_property
    def snapshots(self) -> tuple:
        """Index 0 = base graph, index t = session-t graph."""
        return _cut_stages(self._graph, self.partition)

    def train_pools(self, stage: int) -> dict:
        """{class id -> node id array} over ``classes_at(stage)``: the labeled
        nodes that episodes and prototypes may read at ``stage``."""
        return {cls: self._pools[cls] for cls in self.classes_at(stage)}

    def test_pools(self, stage: int) -> dict:
        """The same map for scoring and export.  It is not yet split from
        ``train_pools``, so an accuracy over it includes nodes training read."""
        return {cls: self._pools[cls] for cls in self.classes_at(stage)}

    @property
    def num_sessions(self) -> int:
        return len(self.partition.sessions)

    def classes_at(self, stage: int) -> tuple:
        """All encountered class ids through the given stage, ascending."""
        classes = list(self.partition.base_classes)
        for spec in self.partition.sessions[:stage]:
            classes.extend(spec.novel_classes)
        return tuple(sorted(classes))

    def novel_at(self, session: int) -> tuple:
        return tuple(sorted(self.partition.sessions[session - 1].novel_classes))

    def supports_at(self, session: int) -> dict:
        return dict(self.partition.sessions[session - 1].supports)


def _class_members(g: Graph) -> dict:
    """Every labeled class's node ids, ascending and read-only."""
    order = np.argsort(g.labels, kind="stable")
    classes, starts = np.unique(g.labels[order], return_index=True)
    members = {}
    for cls, ids in zip(classes.tolist(), np.split(g.node_ids[order], starts[1:])):
        if cls != UNLABELED:
            ids.sort()
            ids.setflags(write=False)
            members[cls] = ids
    return members


def _class_pools(members: dict, partition: ClassPartition) -> dict:
    """class id -> its labeled node ids less its held-out supports: one
    read-only array per class, shared by every stage it is part of."""
    pools = {cls: members[cls] for cls in partition.base_classes}
    for spec in partition.sessions:
        for cls in spec.novel_classes:
            labeled = members[cls]
            pools[cls] = np.delete(labeled, np.searchsorted(labeled, spec.supports[cls]))
            pools[cls].setflags(write=False)
    return pools


def _cut_stages(g: Graph, partition: ClassPartition) -> tuple:
    """The snapshots of a validated partition, one per stage."""
    stage_of = dict.fromkeys(partition.base_classes, 0)
    for stage, spec in enumerate(partition.sessions, start=1):
        stage_of.update(dict.fromkeys(spec.novel_classes, stage))
    # the first stage each row is part of: unlabeled rows from the base on,
    # rows of classes outside the partition never
    stages = len(partition.sessions) + 1
    row_stage = np.full(g.node_count, stages)
    classes = sorted(stage_of)
    pos, hit = _find_sorted(np.array(classes, dtype=np.int64), g.labels)
    row_stage[hit] = np.array([stage_of[c] for c in classes], dtype=np.int64)[pos[hit]]
    row_stage[g.labels == UNLABELED] = 0
    return tuple(_row_subset(g, np.flatnonzero(row_stage <= stage)) for stage in range(stages))


def _validate_partition_classes(members: dict, base_classes, session_novel_classes):
    listed = list(base_classes)
    for novel in session_novel_classes:
        listed.extend(novel)
    if len(set(listed)) != len(listed):
        raise ClassOverlapError("base and session class lists must be pairwise disjoint")
    unknown = [c for c in listed if int(c) not in members]
    if unknown:
        raise UnknownClassError(f"classes not present in graph labels: {unknown}")


def build_session_stream(g: Graph, base_classes: Sequence[int],
                         session_novel_classes: Sequence[Sequence[int]],
                         k_shot: int, seed: int) -> SessionStream:
    """Construct the base-plus-sessions stream, sampling K-shot supports.

    Supports are drawn uniformly without replacement per novel class,
    deterministically under ``seed``; the pools are derived from the
    partition here, the snapshots on first use.
    """
    if k_shot < 1:
        raise ValueError(f"k_shot must be positive, got {k_shot}")
    members = _class_members(g)
    _validate_partition_classes(members, base_classes, session_novel_classes)
    rng = np.random.default_rng(seed)
    sessions = []
    for novel in session_novel_classes:
        supports = {}
        for cls in novel:
            labeled = members[int(cls)]
            if len(labeled) < k_shot + 1:
                raise InsufficientLabelsError(
                    f"class {cls} has {len(labeled)} labeled nodes, needs >= {k_shot + 1}")
            chosen = rng.choice(labeled, size=k_shot, replace=False)
            supports[int(cls)] = tuple(int(v) for v in np.sort(chosen))
        sessions.append(SessionSpec(tuple(int(c) for c in novel), supports))
    partition = ClassPartition(tuple(int(c) for c in base_classes), tuple(sessions))
    return SessionStream(partition, k_shot, seed, g, _class_pools(members, partition))


def save_manifest(stream: SessionStream, path) -> None:
    doc = {
        "base_classes": list(stream.partition.base_classes),
        "sessions": [
            {
                "novel_classes": list(spec.novel_classes),
                "supports": {str(cls): list(sup) for cls, sup in sorted(spec.supports.items())},
            }
            for spec in stream.partition.sessions
        ],
        "k_shot": stream.k_shot,
        "seed": stream.seed,
    }
    with replacing(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_fields(p: Path, doc) -> tuple:
    """``(base classes, k_shot, seed, [(novel classes, supports)])`` of manifest
    ``p``'s parsed ``doc``, each field typed before it is read.  A missing or
    mistyped field is a ``ManifestError`` that names it."""

    def bad(name, expected, value):
        return ManifestError(f"{p}: {name} must be {expected}, got {json.dumps(value)}")

    def get(obj, key):
        if key not in obj:
            raise ManifestError(f"{p}: malformed manifest ({key!r})")
        return obj[key]

    def is_int(v, least=-2 ** 63):
        return type(v) is int and least <= v < 2 ** 63

    def ints(name, value) -> list:
        if not (isinstance(value, list) and all(map(is_int, value))):
            raise bad(name, "a list of 64-bit integers", value)
        return value

    if not isinstance(doc, dict):
        raise ManifestError(f"{p}: must hold a JSON object")
    base = ints("base_classes", get(doc, "base_classes"))
    if len(base) < 2:
        raise bad("base_classes", "a list of at least two classes", base)
    k_shot, seed = get(doc, "k_shot"), get(doc, "seed")
    if not is_int(k_shot, 1):
        raise bad("k_shot", "a positive integer", k_shot)
    if not is_int(seed, 0):
        raise bad("seed", "a non-negative integer", seed)
    if not isinstance(get(doc, "sessions"), list):
        raise bad("sessions", "a list", doc["sessions"])
    sessions = []
    for i, entry in enumerate(doc["sessions"]):
        name = f"sessions[{i}]"
        if not isinstance(entry, dict):
            raise bad(name, "an object", entry)
        novel = ints(f"{name}.novel_classes", get(entry, "novel_classes"))
        raw = get(entry, "supports")
        if not isinstance(raw, dict):
            raise bad(f"{name}.supports", "an object from class id to node ids", raw)
        supports = {}
        for key, ids in raw.items():
            if not (key.isascii() and key.isdigit() and key == str(int(key))):
                raise bad(f"{name}.supports", "keyed by class ids", key)
            supports[int(key)] = tuple(ints(f"{name}.supports[{json.dumps(key)}]", ids))
        sessions.append((novel, supports))
    return base, k_shot, seed, sessions


def load_session_stream(g: Graph, path) -> SessionStream:
    """Rebuild a stream from its manifest; snapshots and pools are rederived."""
    p = Path(path)
    if p.is_dir():
        raise ManifestError(f"{p}: is a directory, not a manifest file")
    if not p.is_file():
        raise DatasetFileMissingError(f"missing manifest: {p}")
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:                   # not JSON, or not UTF-8
        raise ManifestError(f"{p}: invalid JSON ({exc})") from None
    base, k_shot, seed, sessions = _manifest_fields(p, doc)
    members = _class_members(g)
    _validate_partition_classes(members, base, [novel for novel, _ in sessions])
    specs = []
    for novel, supports in sessions:
        if sorted(supports) != sorted(novel):
            raise ManifestError(f"{p}: supports must cover exactly the novel classes {novel}")
        for cls, sup in supports.items():
            if len(sup) != k_shot:
                raise ManifestError(f"{p}: class {cls} has {len(sup)} supports, expected {k_shot}")
            if len(members[cls]) < k_shot + 1:
                raise ManifestError(f"{p}: class {cls} has {len(members[cls])} labeled nodes, "
                                    f"needs >= {k_shot + 1}")
            repeated = [v for v in sup if sup.count(v) > 1]
            if repeated:
                raise ManifestError(f"{p}: class {cls} lists support node {repeated[0]} twice")
            _, labeled = _find_sorted(members[cls], np.asarray(sup))
            if not labeled.all():                  # outside the graph, or labeled otherwise
                v = sup[int(np.argmin(labeled))]
                g.row_of(v)                            # raises NodeIdError outside the graph
                raise ManifestError(f"{p}: support node {v} is not labeled {cls}")
        specs.append(SessionSpec(tuple(novel), supports))
    partition = ClassPartition(tuple(base), tuple(specs))
    return SessionStream(partition, k_shot, seed, g, _class_pools(members, partition))
