"""sha256 digests of the generator, the edge split and the saved files.

The digests were recorded from the tuple-set implementation these
functions had before edges became int64 keys, so each test holds the
current code to those bits: the same graphs, the same split, the same
bytes on disk.
"""

import hashlib
import json

import pytest

from hypermux.evaluate import split_edges
from hypermux.graph import save_multiplex
from hypermux.synthetic import GenParams, generate

SPARSE = GenParams(n_nodes=1000, n_clusters=5, n_dims=10, p_in=0.15, p_out=0.015, seed=1)
SPECS = {
    "train-sparse": SPARSE,
    "train-dense": GenParams(n_nodes=500, n_clusters=5, n_dims=40, p_in=0.15, p_out=0.015,
                             seed=2),
    "resolved-defaults": GenParams(n_nodes=600, n_clusters=4, n_dims=12, seed=3),
}

GENERATE_DIGESTS = {
    "resolved-defaults": {
        "dims": "e2e6ea5c82cb2e7db454b134db32561f0d020f1d93c6163fde76e23116cbfe39",
        "features": "6ca0fb89aeaa77c077b957fd6e346bf0bd534fd88a1cdb4ef66adb69065ee8d0",
        "labels": "11f15cceeea4cedac41ac38180dc784033782ce6a342bf64f99bc0ea820f51c8",
        "resolved": "49105153fdfd3ecd06f53d4013033d8ad9ff7035d297afa9fcc35ebe2ce47d42",
    },
    "train-dense": {
        "dims": "b7dfb2646248da06bd85027d719f7013c4598f4c701139156fc510da53b9d1c6",
        "features": "9194418e06ac3cb5f25c067157a09a3ed70389b6d3e84798628ab9911d0a1a93",
        "labels": "f69f32a6a188f6bde74f1f94db78b4b5aae6d945dce917b94cd1eff3d52d231b",
        "resolved": "ddd09c5097042f2d13ae44190db6a5aecdf4201f1b11b6e3db3ef50e004c39ce",
    },
    "train-sparse": {
        "dims": "fc26f3a615e6c6bd7865d845a109e743f42c124f7c22b03c3973b6bea49925fa",
        "features": "3af599470950968637e712e55cf159bb575ff88ada82d976696b69f0a4a8a413",
        "labels": "58b9fa023a3f5089dfb8fc3b5043c34c09b4055fd5935ba418ed5cc01e04c9cf",
        "resolved": "d2902800bd15eadb22726b8ea21fd9f20ad1f490d2c0e2191c94b1852b4ff54a",
    },
}

SPLIT_DIGESTS = {
    "test_pos": "26724dcda6d793cfc4a86ef3cae850b1610cc847eecbbdec6b619ffdfbd75435",
    "test_neg": "aa9082e8e40153a49cb414153962d21d0bb2f2c23391b717de37195e1d590ab6",
    "train_dims": "6599b8359aa85c4e1fa301db15db99e57874b6920f03954365e1889fcf9cc867",
}

SAVED_DIGESTS = {
    "dims/0.edges": "437b5f7e71a6be206fd5a7396e10050051373db204d250bf449cfa9dce40e6bb",
    "dims/1.edges": "1d3239123663873d55b8be15418da8cfaceccf0f2fab3448fe9e9d9f522f5763",
    "dims/2.edges": "780505b803e4d54f53c0634ba221175370efddd99acde9539a9f2e13372c9cb6",
    "dims/3.edges": "f56d063c45474834f21de3180816fd6b2483ae581719ede6f92559eeb77465db",
    "dims/4.edges": "e377f82a35f3536033ea403d8468868f6251878a0f5f06c5d18b5befcc48db90",
    "dims/5.edges": "a3e6a4a3ec264dce87b03ce9654924dff14d0879e9d6e156e6dc9f34890abb47",
    "dims/6.edges": "e9a490d2cb6250342e390bd780d54dccc3c610181433ae9f0c26c755fd1f5e7a",
    "dims/7.edges": "a6c0b0760fc3ac73fd5b7a0130088121e20b9467ad945080080e43552da66d0b",
    "dims/8.edges": "4c2319f19c638c3b326534aa921685d4822e92a0058df435dc0872dfeb22d015",
    "dims/9.edges": "4b849f9a0dde9d4aac128db675d159540fd2cf0bed9dba8d82aa36a9301b4a54",
    "features.csv": "eb4d25f28269a852e3b9cd849a502189bf550d6f1aed5ed9cfb20f0639265073",
    "labels.csv": "3952ac28b061e07c655d39da153073888d6b6569641c9b1630f9489a9752d27f",
    "meta.json": "920ee143c767ec4879c56c496f35bbd8c54b9cfed84fb019134dafe216c32464",
}


def sha(*chunks):
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.tobytes())
    return h.hexdigest()


def csr_digest(mats):
    return sha(*(arr for a in mats for arr in (a.indptr, a.indices, a.data)))


@pytest.fixture(scope="module")
def sparse_graph():
    return generate(SPARSE).graph


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_generate_matches_recorded_digests(spec):
    result = generate(SPECS[spec])
    got = {"dims": csr_digest(result.graph.dims),
           "features": sha(result.graph.features),
           "labels": sha(result.labels, repr(result.graph.labels).encode()),
           "resolved": sha(json.dumps(result.resolved, sort_keys=True).encode())}
    assert got == GENERATE_DIGESTS[spec]


def test_split_edges_matches_recorded_digests(sparse_graph):
    split = split_edges(sparse_graph, (0.85, 0.15), seed=11)
    got = {"test_pos": sha(repr(split.test_pos).encode()),
           "test_neg": sha(repr(split.test_neg).encode()),
           "train_dims": csr_digest(split.train_graph.dims)}
    assert got == SPLIT_DIGESTS


def test_saved_files_match_recorded_digests(sparse_graph, tmp_path):
    root = save_multiplex(sparse_graph, tmp_path / "g")
    got = {str(p.relative_to(root)): sha(p.read_bytes())
           for p in sorted(root.rglob("*")) if p.is_file()}
    assert got == SAVED_DIGESTS
