import struct

import numpy as np
import pytest

import geometer.cli as cli
import geometer.graph_store as gs
from geometer.config import ExperimentConfig
from oracles import adjacency_matrix, graphs_equal, induced_subgraph, streams_equal


def path_graph(n=3, feature_dim=2, labels=None):
    feats = np.arange(n * feature_dim, dtype=np.float32).reshape(n, feature_dim)
    edges = [(i, i + 1) for i in range(n - 1)]
    if labels is None:
        labels = [0] * n
    return gs.make_graph(feats, edges, labels)


def random_graph(rng, n=10, p=0.3, classes=2):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    feats = rng.normal(size=(n, 4)).astype(np.float32)
    labels = rng.integers(0, classes, size=n)
    return gs.make_graph(feats, pairs, labels), pairs


# --- loading and the canonical format --------------------------------------

def _raised(read, directory) -> gs.GraphStoreError:
    with pytest.raises(gs.GraphStoreError) as info:
        read(directory)
    return info.value


def _prepare(directory):
    cli.cmd_prepare(ExperimentConfig(dataset_dir=str(directory),
                                     manifest=str(directory / "manifest.json")))


def load_error(directory) -> gs.GraphStoreError:
    """The error ``load_graph`` raises on ``directory``, after checking that
    ``prepare``, which checks the features without keeping them, raises one
    of the same type with the same message."""
    loaded, prepared = _raised(gs.load_graph, directory), _raised(_prepare, directory)
    assert (type(prepared), str(prepared)) == (type(loaded), str(loaded))
    return loaded


def write_dataset_by_hand(directory, features, edge_lines, label_lines):
    n, d = features.shape
    payload = gs._FEATURES_MAGIC + struct.pack("<II", n, d)
    payload += np.ascontiguousarray(features, dtype="<f4").tobytes()
    (directory / "features.bin").write_bytes(payload)
    (directory / "edges.tsv").write_text(edge_lines)
    (directory / "labels.tsv").write_text(label_lines)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [1, 8, 9], ids=["first_block", "last_block", "last_row"])
def test_non_finite_feature_is_found_in_any_row_block(bad, row, monkeypatch):
    # 10 rows in blocks of 4: two full blocks and a ragged one of rows 8-9
    monkeypatch.setattr(gs, "_FINITE_CHECK_ROWS", 4)
    feats = np.ones((10, 3), dtype=np.float32)
    gs.make_graph(feats.copy(), [], [0] * 10)
    feats[row, 2] = bad
    with pytest.raises(gs.DatasetFormatError, match="NaN or Inf"):
        gs.make_graph(feats, [], [0] * 10)


def test_finiteness_check_holds_one_row_block_at_a_time():
    import tracemalloc
    feats = np.ones((4 * gs._FINITE_CHECK_ROWS, 1000), dtype=np.float32)
    tracemalloc.start()
    try:
        gs.make_graph(feats, [], [0] * len(feats))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole-matrix bool mask alone would be a quarter of the feature bytes
    assert peak < feats.nbytes // 8


# 10 rows of 7,000 columns: 70,000 entries, over the rule's 65,536, so a file
# with one nonzero per row is sparse by the rule and one of all ones is dense
_LOADER_SHAPE = (10, 7000)


def _loader_features(density):
    feats = np.zeros(_LOADER_SHAPE, dtype=np.float32)
    if density == "dense":
        feats[:] = 1.0
    else:
        feats[np.arange(10), np.arange(10) * 700 + 3] = 2.5
    return feats


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [1, 8, 9], ids=["first_block", "last_block", "last_row"])
def test_loader_finds_a_non_finite_feature_in_any_block(tmp_path, monkeypatch, density,
                                                         bad, row):
    # blocks of 4 rows: rows 0-3, 4-7 and the ragged 8-9
    monkeypatch.setattr(gs, "_READ_BLOCK", 4 * _LOADER_SHAPE[1])
    feats = _loader_features(density)
    labels = "".join(f"{i}\t0\n" for i in range(10))
    write_dataset_by_hand(tmp_path, feats, "", labels)
    assert gs.load_graph(tmp_path).node_count == 10
    feats[row, 5] = bad
    write_dataset_by_hand(tmp_path, feats, "", labels)
    error = load_error(tmp_path)
    assert type(error) is gs.DatasetFormatError
    assert str(error) == f"{tmp_path / 'features.bin'}: features contain NaN or Inf"


@pytest.mark.parametrize("block_rows", [1, 4, 1024])
def test_file_dense_by_the_rule_loads_as_the_dense_file(tmp_path, monkeypatch, block_rows):
    # rows 0-5 hold one nonzero each and rows 6-9 are full, so a small block
    # finds the file dense only after several sparse-looking blocks
    monkeypatch.setattr(gs, "_READ_BLOCK", block_rows * _LOADER_SHAPE[1])
    feats = _loader_features("sparse")
    feats[6:] = np.random.default_rng(5).normal(size=(4, _LOADER_SHAPE[1]))
    write_dataset_by_hand(tmp_path, feats, "", "".join(f"{i}\t0\n" for i in range(10)))
    g = gs.load_graph(tmp_path)
    assert g.features is g.features        # the stored array, no gather
    assert g.features.tobytes() == (tmp_path / "features.bin").read_bytes()[12:]


def test_loader_reads_negative_zero_as_zero(tmp_path, monkeypatch):
    from scipy import sparse
    monkeypatch.setattr(gs, "_READ_BLOCK", 4 * _LOADER_SHAPE[1])
    feats = _loader_features("sparse")
    feats[[0, 5, 9], [1, 2, 3]] = -0.0
    write_dataset_by_hand(tmp_path, feats, "", "".join(f"{i}\t0\n" for i in range(10)))
    g = gs.load_graph(tmp_path)
    csr = g.features_sparse()
    expected = sparse.csr_matrix(feats)
    assert csr.nnz == expected.nnz == 10
    for name in ("indptr", "indices", "data"):
        assert getattr(csr, name).tobytes() == getattr(expected, name).tobytes()
    assert not np.signbit(g.features).any()


@pytest.mark.parametrize("density", ["sparse", "dense"])
def test_deferred_features_are_read_on_first_use(tmp_path, density):
    write_dataset_by_hand(tmp_path, _loader_features(density), "0\t1\n3\t2\n",
                          "".join(f"{i}\t{i % 3}\n" for i in range(10)))
    deferred = gs.load_graph(tmp_path, defer_features=True)
    store = deferred._store
    assert store.shape == _LOADER_SHAPE and deferred.feature_dim == _LOADER_SHAPE[1]
    assert store._dense is None and store._csr is None
    loaded = gs.load_graph(tmp_path)
    assert graphs_equal(deferred, loaded)          # reads the file here
    assert (store._dense is None) == (loaded._store._dense is None) == (density == "sparse")
    snapshot = induced_subgraph(gs.load_graph(tmp_path, defer_features=True), [1, 2, 3])
    assert np.array_equal(snapshot.features, loaded.features[1:4])


def test_deferred_features_fail_if_the_file_changed(tmp_path):
    write_dataset_by_hand(tmp_path, np.ones((2, 3), dtype=np.float32), "", "0\t0\n1\t0\n")
    g = gs.load_graph(tmp_path, defer_features=True)
    write_dataset_by_hand(tmp_path, np.ones((2, 4), dtype=np.float32), "", "0\t0\n1\t0\n")
    with pytest.raises(gs.DatasetFormatError, match="shape changed since it was checked"):
        g.features


def test_make_graph_stores_sparse_features_as_csr_only():
    feats = _loader_features("sparse")
    g = gs.make_graph(feats, [], [0] * 10)
    assert g._store._dense is None
    assert g.feature_dim == _LOADER_SHAPE[1] and g.features_sparse().nnz == 10
    assert np.array_equal(g.features, feats) and not g.features.flags.writeable
    dense = gs.make_graph(_loader_features("dense"), [], [0] * 10)
    assert dense.features is dense.features


def test_load_minimal_single_node(tmp_path):
    write_dataset_by_hand(tmp_path, np.array([[1.5]], dtype=np.float32), "", "0\t0\n")
    g = gs.load_graph(tmp_path)
    assert g.node_count == 1 and g.edge_count == 0 and g.feature_dim == 1


def test_load_three_node_path_round_trip(tmp_path):
    feats = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], dtype=np.float32)
    write_dataset_by_hand(tmp_path, feats, "0\t1\n1\t2\n", "0\t0\n1\t1\n2\t0\n")
    g = gs.load_graph(tmp_path)
    assert [tuple(e) for e in g.edges] == [(0, 1), (1, 2)]
    out = tmp_path / "rewritten"
    gs.save_dataset(g, out)
    # byte-level round trip against the reference writer
    assert (out / "features.bin").read_bytes() == (tmp_path / "features.bin").read_bytes()
    assert (out / "edges.tsv").read_text() == (tmp_path / "edges.tsv").read_text()
    assert (out / "labels.tsv").read_text() == (tmp_path / "labels.tsv").read_text()
    assert graphs_equal(g, gs.load_graph(out))


def write_dataset_whole(g, directory):
    """The writer as it was before it streamed: one dense copy of the matrix."""
    directory.mkdir()
    header = gs._FEATURES_MAGIC + struct.pack("<II", g.node_count, g.feature_dim)
    payload = np.ascontiguousarray(g.features, dtype="<f4").tobytes()
    (directory / "features.bin").write_bytes(header + payload)
    (directory / "edges.tsv").write_text("".join(f"{a}\t{b}\n" for a, b in g.edges))
    (directory / "labels.tsv").write_text("".join(f"{i}\t{c}\n" for i, c in enumerate(g.labels)))


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("part", ["base", "snapshot"])
def test_save_dataset_writes_the_whole_matrix_writer_bytes(tmp_path, monkeypatch, density,
                                                           part):
    # blocks of 3 rows over 10 rows: three full blocks and a ragged one
    monkeypatch.setattr(gs, "_READ_BLOCK", 3 * _LOADER_SHAPE[1])
    feats = _loader_features(density)
    feats[4:] *= np.arange(1, 7, dtype=np.float32)[:, None]
    g = gs.make_graph(feats, [(0, 1), (1, 5), (4, 9)], [0, 1, -1, 1, 0, 2, 2, 0, 1, 1])
    assert (g._store._dense is None) == (density == "sparse")
    if part == "snapshot":
        g = induced_subgraph(g, [1, 2, 4, 5, 6, 7, 8, 9])
    gs.save_dataset(g, tmp_path / "streamed")
    write_dataset_whole(g, tmp_path / "whole")
    for name in ("features.bin", "edges.tsv", "labels.tsv"):
        assert (tmp_path / "streamed" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "streamed").iterdir()) == [
        "edges.tsv", "features.bin", "labels.tsv"]


def test_save_dataset_never_holds_the_dense_matrix(tmp_path):
    import tracemalloc
    rng = np.random.default_rng(0)
    feats = np.zeros((2048, 1024), dtype=np.float32)      # 2M entries, 8 MiB dense
    feats[rng.integers(0, 2048, 20000), rng.integers(0, 1024, 20000)] = 1.0
    g = gs.make_graph(feats, [], [0] * 2048)
    assert g._store._dense is None
    del feats
    tracemalloc.start()
    try:
        gs.save_dataset(g, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 1024 * 4 // 4


def test_load_merges_directed_duplicates(tmp_path):
    feats = np.zeros((2, 1), dtype=np.float32)
    write_dataset_by_hand(tmp_path, feats, "0\t1\n1\t0\n", "0\t0\n1\t0\n")
    g = gs.load_graph(tmp_path)
    assert g.edge_count == 1


def test_load_error_missing_file(tmp_path):
    assert type(load_error(tmp_path)) is gs.DatasetFileMissingError


def test_load_error_bad_magic(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((1, 1), dtype=np.float32), "", "0\t0\n")
    raw = bytearray((tmp_path / "features.bin").read_bytes())
    raw[:4] = b"XXXX"
    (tmp_path / "features.bin").write_bytes(bytes(raw))
    error = load_error(tmp_path)
    assert type(error) is gs.DatasetFormatError
    assert str(error) == f"{tmp_path / 'features.bin'}: bad magic, expected b'GFSC'"


def test_load_error_zero_width(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 0), dtype=np.float32), "", "0\t0\n1\t0\n")
    error = load_error(tmp_path)
    assert type(error) is gs.DatasetFormatError
    assert str(error) == f"{tmp_path / 'features.bin'}: feature dim must be positive"


def test_load_error_length_mismatch(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 2), dtype=np.float32), "", "0\t0\n1\t0\n")
    raw = (tmp_path / "features.bin").read_bytes()
    (tmp_path / "features.bin").write_bytes(raw[:-4])
    error = load_error(tmp_path)
    assert type(error) is gs.DatasetFormatError
    assert str(error) == (f"{tmp_path / 'features.bin'}: payload length 24 does not "
                          f"match header (2 x 2 floats -> 28 bytes)")


def test_load_error_duplicate_edge(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 1), dtype=np.float32),
                          "0\t1\n0\t1\n", "0\t0\n1\t0\n")
    assert type(load_error(tmp_path)) is gs.DuplicateEdgeError


def test_load_error_out_of_range_node(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 1), dtype=np.float32),
                          "0\t5\n", "0\t0\n1\t0\n")
    assert type(load_error(tmp_path)) is gs.NodeIdError


def test_load_error_self_loop(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 1), dtype=np.float32),
                          "1\t1\n", "0\t0\n1\t0\n")
    assert type(load_error(tmp_path)) is gs.SelfLoopError


def test_load_error_incomplete_labels(tmp_path):
    write_dataset_by_hand(tmp_path, np.zeros((2, 1), dtype=np.float32), "", "0\t0\n")
    assert type(load_error(tmp_path)) is gs.DatasetFormatError


_LABELS3 = "0\t0\n1\t1\n2\t-1\n"

# (edges.tsv, labels.tsv, exception, message); {e} and {l} stand for the
# two file paths.  Line numbers count blank lines.
_MALFORMED = {
    "edge_three_columns": ("0\t1\t2\n", _LABELS3, gs.DatasetFormatError,
                           "{e}:1: expected two columns, got 3"),
    "edge_one_column": ("0\t1\n\n2\n", _LABELS3, gs.DatasetFormatError,
                        "{e}:3: expected two columns, got 1"),
    "edge_space_separated": ("0 1\n", _LABELS3, gs.DatasetFormatError,
                             "{e}:1: expected two columns, got 1"),
    "edge_word": ("0\tx\n", _LABELS3, gs.DatasetFormatError,
                  "{e}:1: non-integer node index"),
    "edge_float": ("1\t2\n0\t1.0\n", _LABELS3, gs.DatasetFormatError,
                   "{e}:2: non-integer node index"),
    "edge_empty_field": ("0\t\n", _LABELS3, gs.DatasetFormatError,
                         "{e}:1: non-integer node index"),
    # an index past int64 parses as an int and is out of range like any other
    "edge_overflow": ("0\t99999999999999999999\n", _LABELS3, gs.NodeIdError,
                      "{e}:1: edge endpoint out of range: (0, 99999999999999999999)"),
    "edge_non_ascii_letter": ("0\t1Ǿ\n", _LABELS3, gs.DatasetFormatError,
                              "{e}:1: non-integer node index"),
    "edge_control_char": ("0\t1\x1f\n", _LABELS3, gs.DatasetFormatError,
                          "{e}:1: non-integer node index"),
    "edge_duplicate": ("0\t1\n1\t2\n0\t1\n", _LABELS3, gs.DuplicateEdgeError,
                       "{e}:3: duplicate edge (0, 1)"),
    "edge_duplicate_after_blank": ("0\t1\n \n1\t0\n0\t01\n", _LABELS3, gs.DuplicateEdgeError,
                                   "{e}:4: duplicate edge (0, 1)"),
    "edge_duplicate_out_of_range": ("0\t9\n0\t9\n", _LABELS3, gs.DuplicateEdgeError,
                                    "{e}:2: duplicate edge (0, 9)"),
    "edge_error_before_label_error": ("0\tx\n", "0\t0\n", gs.DatasetFormatError,
                                      "{e}:1: non-integer node index"),
    "label_three_columns": ("", "0\t0\n1\t0\t1\n2\t0\n", gs.DatasetFormatError,
                            "{l}:2: expected two columns, got 3"),
    "label_word": ("", "0\t0\n1\ta\n", gs.DatasetFormatError,
                   "{l}:2: non-integer field"),
    "label_index_too_large": ("", "0\t0\n3\t0\n", gs.NodeIdError,
                              "{l}:2: node index 3 out of range"),
    "label_index_negative": ("", "-1\t0\n", gs.NodeIdError,
                             "{l}:1: node index -1 out of range"),
    "label_twice": ("", "0\t0\n\n0\t1\n", gs.DatasetFormatError,
                    "{l}:3: node 0 labeled twice"),
    "label_twice_before_bad_class": ("", "0\t0\n0\t-2\n", gs.DatasetFormatError,
                                     "{l}:2: node 0 labeled twice"),
    "label_bad_class": ("", "0\t0\n1\t-2\n2\t0\n", gs.DatasetFormatError,
                        "{l}:2: bad class id -2"),
    "label_missing_line": ("", "0\t0\n2\t0\n", gs.DatasetFormatError,
                           "{l}: node 1 has no label line"),
    "label_error_before_edge_range": ("0\t9\n", "0\t0\n", gs.DatasetFormatError,
                                      "{l}: node 1 has no label line"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_loader_error_kind_and_message(tmp_path, case):
    edges, labels, kind, message = _MALFORMED[case]
    write_dataset_by_hand(tmp_path, np.zeros((3, 1), dtype=np.float32), edges, labels)
    expected = message.format(e=tmp_path / "edges.tsv", l=tmp_path / "labels.tsv")
    error = load_error(tmp_path)
    assert type(error) is kind and str(error) == expected


@pytest.mark.parametrize("edges, labels, kind, message", [
    ("1\t2\n\n0\t5\n", _LABELS3, gs.NodeIdError, "{e}:3: edge endpoint out of range: (0, 5)"),
    ("1\t0\n2\t2\n", _LABELS3, gs.SelfLoopError, "self-loop on node 2"),
], ids=["endpoint_out_of_range", "self_loop"])
def test_loader_graph_errors(tmp_path, edges, labels, kind, message):
    write_dataset_by_hand(tmp_path, np.zeros((3, 1), dtype=np.float32), edges, labels)
    error = load_error(tmp_path)
    assert type(error) is kind and str(error) == message.format(e=tmp_path / "edges.tsv")


def test_array_parse_reads_what_the_line_scan_reads(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    n = 40
    feats = np.zeros((n, 1), dtype=np.float32)
    for trial in range(10):
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(60, 2)) if a != b}
        edge_lines = [f"{a}\t{b}" for a, b in pairs] + [""] * 5
        label_lines = [f"{i}\t{rng.integers(-1, 4)}" for i in rng.permutation(n)] + [""] * 5
        rng.shuffle(edge_lines)
        rng.shuffle(label_lines)
        newline = "\r\n" if trial % 2 else "\n"
        write_dataset_by_hand(tmp_path, feats, newline.join(edge_lines), newline.join(label_lines))
        expected = gs.make_graph(feats, gs._scan_edges(tmp_path / "edges.tsv"),
                                 gs._scan_labels(tmp_path / "labels.tsv", n))
        with monkeypatch.context() as m:
            # a well-formed file never needs the scan
            m.setattr(gs, "_scan_edges", None)
            m.setattr(gs, "_scan_labels", None)
            assert graphs_equal(gs.load_graph(tmp_path), expected)


@pytest.mark.parametrize("edges, labels", [
    ("\n0\t1\n   \n\t\n1\t2\n\n", " \n0\t0\n\n1\t1\n2\t-1\n \t \n"),
    ("0\t1\r\n1\t2\r\n", "0\t0\r\n1\t1\r\n2\t-1\r\n"),
    ("0\t +1\n2 \t1\n", "0\t0\n1\t 1\n2\t-1\n"),
    ("00\t0_1\n1\t2\n", "0\t0\n1\t1\n2\t-1"),
    ("", "\n2\t-1\n0\t0\n1\t1\n"),
], ids=["blank_and_whitespace_lines", "crlf", "padded_and_signed", "int_literals",
        "empty_edges_unordered_labels"])
def test_loader_reads_what_int_reads(tmp_path, edges, labels):
    write_dataset_by_hand(tmp_path, np.zeros((3, 1), dtype=np.float32), edges, labels)
    g = gs.load_graph(tmp_path)
    assert g.labels.tolist() == [0, 1, -1]
    assert g.edges.tolist() == ([[0, 1], [1, 2]] if edges else [])
    assert g.edges.dtype == np.int64 and g.edges.shape == (g.edge_count, 2)


# --- degree / neighbors -----------------------------------------------------

def test_degree_and_neighbors_trivial():
    g = path_graph(3)
    assert g.degrees().tolist() == [1, 2, 1]
    assert adjacency_matrix(3, g.edges)[1].tolist() == [1, 0, 1]
    isolated = gs.make_graph(np.zeros((1, 1), dtype=np.float32), [], [0])
    assert isolated.degrees().tolist() == [0]


def test_degree_matches_adjacency_oracle():
    rng = np.random.default_rng(7)
    g, pairs = random_graph(rng)
    adj = adjacency_matrix(g.node_count, pairs)
    np.testing.assert_array_equal(g.degrees(), adj.sum(axis=1))
    np.testing.assert_array_equal(adjacency_matrix(g.node_count, g.edges), adj)


def test_unknown_node_raises():
    g = path_graph(3)
    with pytest.raises(gs.NodeIdError):
        g.row_of(99)


def permuted_graph():
    feats = np.arange(8, dtype=np.float32).reshape(4, 2)
    return gs.make_graph(feats, [(0, 1), (2, 3)], [0, 1, 0, 1], node_ids=[30, 10, 40, 20])


def test_rows_of_permuted_node_ids():
    g = permuted_graph()
    rows = g.rows_of([10, 20, 30, 40])
    assert rows.dtype == np.int64 and rows.tolist() == [1, 3, 0, 2]
    assert g.row_of(30) == 0 and type(g.row_of(30)) is int
    assert g.degrees()[g.row_of(20)] == 1
    assert g.node_ids[np.flatnonzero(adjacency_matrix(4, g.edges)[g.row_of(20)])].tolist() == [40]


def test_rows_of_names_the_first_unknown_id():
    g = permuted_graph()
    with pytest.raises(gs.NodeIdError, match="^unknown node id 99$"):
        g.rows_of([10, 99, 98])
    with pytest.raises(gs.NodeIdError, match="^unknown node id 0$"):
        g.row_of(0)
    with pytest.raises(gs.NodeIdError, match="^unknown node id 50$"):
        g.rows_of([50])


def test_rows_of_empty_and_array_inputs():
    g = permuted_graph()
    empty = g.rows_of([])
    assert empty.dtype == np.int64 and empty.shape == (0,)
    assert g.rows_of(np.array([20, 10])).tolist() == [3, 1]
    assert g.rows_of((40,)).tolist() == [2]
    none = gs.make_graph(np.zeros((0, 1), dtype=np.float32), [], [])
    assert none.rows_of([]).shape == (0,)
    with pytest.raises(gs.NodeIdError, match="^unknown node id 0$"):
        none.rows_of([0])


def test_rows_of_a_snapshot():
    g = permuted_graph()
    sub = induced_subgraph(g, [40, 10, 30])
    assert sub.node_ids.tolist() == [30, 10, 40]
    assert sub.rows_of([10, 40, 30]).tolist() == [1, 2, 0]
    with pytest.raises(gs.NodeIdError, match="^unknown node id 20$"):
        sub.rows_of([30, 20])


# --- induced subgraph -------------------------------------------------------

def test_induced_identity_and_empty():
    g = path_graph(4, labels=[0, 1, 0, 1])
    full = induced_subgraph(g, list(g.node_ids))
    assert graphs_equal(g, full)
    empty = induced_subgraph(g, [])
    assert empty.node_count == 0 and empty.edge_count == 0


def test_induced_path_endpoints_only():
    g = path_graph(3)
    sub = induced_subgraph(g, [0, 2])
    assert sub.node_count == 2 and sub.edge_count == 0
    assert list(sub.node_ids) == [0, 2]


def test_induced_preserves_degree_when_neighborhood_kept():
    rng = np.random.default_rng(3)
    g, _ = random_graph(rng, n=12)
    center = 4
    keep = {center} | set(np.flatnonzero(adjacency_matrix(g.node_count, g.edges)[center]).tolist())
    sub = induced_subgraph(g, keep)
    assert sub.degrees()[sub.row_of(center)] == g.degrees()[center]


def test_induced_unknown_id():
    g = path_graph(3)
    with pytest.raises(gs.NodeIdError):
        induced_subgraph(g, [0, 42])


# --- session streams --------------------------------------------------------

def labeled_blob_graph(rng, per_class=12, classes=5, feature_dim=3):
    n = per_class * classes
    labels = np.repeat(np.arange(classes), per_class)
    feats = rng.normal(size=(n, feature_dim)).astype(np.float32)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
    return gs.make_graph(feats, pairs, labels)


def test_build_stream_shapes_and_pools():
    rng = np.random.default_rng(0)
    g = labeled_blob_graph(rng)
    stream = gs.build_session_stream(g, [0, 1], [[2], [3], [4]], k_shot=5, seed=9)
    assert stream.num_sessions == 3
    assert len(stream.snapshots) == 4
    assert stream.classes_at(0) == (0, 1)
    assert stream.classes_at(3) == (0, 1, 2, 3, 4)
    for spec in stream.partition.sessions:
        for cls, sup in spec.supports.items():
            assert len(sup) == 5
            for v in sup:
                assert int(g.labels[g.row_of(v)]) == cls
    # supports never appear in the same (or later) session's test pool
    for t in range(1, 4):
        for cls, pool in stream.test_pools(t).items():
            for spec in stream.partition.sessions[:t]:
                if cls in spec.supports:
                    assert not set(spec.supports[cls]) & set(int(v) for v in pool)


def test_stream_snapshots_monotone_and_exact():
    rng = np.random.default_rng(1)
    g = labeled_blob_graph(rng)
    stream = gs.build_session_stream(g, [0, 1], [[2], [3], [4]], k_shot=3, seed=2)
    prev = set()
    for t, snap in enumerate(stream.snapshots):
        ids = set(int(v) for v in snap.node_ids)
        assert prev <= ids
        prev = ids
        expected_classes = set(stream.classes_at(t))
        got = set(int(c) for c in np.unique(snap.labels[snap.labels >= 0]))
        assert got <= expected_classes


def test_stream_cuts_its_stages_on_first_use(monkeypatch):
    g = labeled_blob_graph(np.random.default_rng(4))
    cut = gs._cut_stages
    monkeypatch.setattr(gs, "_cut_stages", None)
    stream = gs.build_session_stream(g, [0, 1], [[2], [3, 4]], k_shot=3, seed=0)
    assert stream.partition.base_classes == (0, 1) and stream.num_sessions == 2
    calls = []
    monkeypatch.setattr(gs, "_cut_stages", lambda *a: calls.append(1) or cut(*a))
    assert stream.snapshots is stream.snapshots and len(stream.snapshots) == 3
    assert sorted(stream.train_pools(2)) == sorted(stream.test_pools(2)) == [0, 1, 2, 3, 4]
    assert calls == [1]


def test_stream_zero_sessions():
    rng = np.random.default_rng(2)
    g = labeled_blob_graph(rng)
    stream = gs.build_session_stream(g, [0, 1, 2, 3, 4], [], k_shot=2, seed=0)
    assert stream.num_sessions == 0 and len(stream.snapshots) == 1


def test_stream_determinism_and_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    g = labeled_blob_graph(rng)
    s1 = gs.build_session_stream(g, [0, 1], [[2], [3]], k_shot=4, seed=77)
    s2 = gs.build_session_stream(g, [0, 1], [[2], [3]], k_shot=4, seed=77)
    m1, m2 = tmp_path / "a.json", tmp_path / "b.json"
    gs.save_manifest(s1, m1)
    gs.save_manifest(s2, m2)
    assert m1.read_bytes() == m2.read_bytes()
    reloaded = gs.load_session_stream(g, m1)
    assert streams_equal(s1, reloaded)
    with pytest.raises(gs.DatasetFileMissingError, match=f"^missing manifest: {tmp_path / 'c'}$"):
        gs.load_session_stream(g, tmp_path / "c")


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path):
    from dataclasses import replace
    g = labeled_blob_graph(np.random.default_rng(6))
    stream = gs.build_session_stream(g, [0, 1], [[2], [3]], k_shot=4, seed=5)
    path = tmp_path / "manifest.json"
    gs.save_manifest(stream, path)
    before = path.read_bytes()
    # "seed" sorts after "base_classes" and "k_shot", which are already written
    with pytest.raises(TypeError):
        gs.save_manifest(replace(stream, seed=object()), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_stream_errors():
    rng = np.random.default_rng(4)
    g = labeled_blob_graph(rng)
    with pytest.raises(gs.ClassOverlapError):
        gs.build_session_stream(g, [0, 1], [[1]], k_shot=2, seed=0)
    with pytest.raises(gs.InsufficientLabelsError):
        gs.build_session_stream(g, [0], [[1]], k_shot=12, seed=0)
    with pytest.raises(gs.UnknownClassError):
        gs.build_session_stream(g, [0], [[9]], k_shot=2, seed=0)


def test_unlabeled_nodes_ride_along_in_snapshots():
    feats = np.zeros((4, 1), dtype=np.float32)
    g = gs.make_graph(feats, [(0, 1), (1, 2), (2, 3)], [0, -1, 1, 1])
    stream = gs.build_session_stream(g, [0], [[1]], k_shot=1, seed=0)
    base = stream.snapshots[0]
    assert set(int(v) for v in base.node_ids) == {0, 1}
    assert gs.UNLABELED in base.labels


def test_make_graph_errors_show_plain_ints():
    with pytest.raises(gs.NodeIdError) as info:
        gs.make_graph(np.zeros((3, 1)), [(0, 5)], [0, 0, 0])
    assert str(info.value) == "edge endpoint out of range: (0, 5)"
    with pytest.raises(gs.SelfLoopError) as info:
        gs.make_graph(np.zeros((3, 1)), np.array([(2, 2)]), [0, 0, 0])
    assert str(info.value) == "self-loop on node 2"
