"""Training-data operator tests: dedup family, ANN, text analysis,
multimodal stub, bootstrap pipeline."""

import hashlib

import numpy as np
import pytest

from ts_pymfe_ray.pipelines import textops as t

SF = "/root/testdata/sf0.001"


# ------------------------------------------------ one-document references
# hashlib-based twins of the batch hashers (the DuckDB oracles compute the
# same md5_number_lower values).


def _md5_64(s: str) -> int:
    """Low 64 MD5 bits (digest bytes 8..16, little-endian), as DuckDB's
    md5_number_lower."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:16], "little")


def _word_windows(text: str, k: int) -> list[str]:
    """Every k-word window of a text split on single spaces; a text of
    fewer than k words is one window."""
    words = text.split(" ")
    if len(words) < k:
        return [text]
    return [" ".join(words[i: i + k]) for i in range(len(words) - k + 1)]


def _md5_shingles(text: str, k: int = 3) -> np.ndarray:
    """Distinct word k-shingle md5_64 hashes."""
    return np.unique(np.array([_md5_64(w) for w in _word_windows(text, k)], dtype=np.uint64))


def minhash_signature(shingle_hashes: np.ndarray) -> np.ndarray:
    """(NUM_PERM,) MinHash signature: min over shingles of (a*x + b) mod p
    with numpy's ``%`` (exact: a*x + b < 2^63 for 31-bit a, x, b)."""
    p = np.uint64(t._MERSENNE)
    x = np.asarray(shingle_hashes, dtype=np.uint64) % p
    return ((t._A[:, None] * x[None, :] + t._B[:, None]) % p).min(axis=1)


def band_keys(sig: np.ndarray) -> list[int]:
    """md5_64 of each band's comma-joined values plus ``|band``."""
    r = t.ROWS_PER_BAND
    return [_md5_64(",".join(str(int(v)) for v in sig[b * r: (b + 1) * r]) + "|" + str(b))
            for b in range(t.BANDS)]


def simhash64(text: str) -> int:
    """Majority vote, bit by bit, over the md5_64 of every word."""
    hs = [_md5_64(w) for w in _word_windows(text, 1)]
    return sum(1 << bit for bit in range(64)
               if 2 * sum(h >> bit & 1 for h in hs) - len(hs) > 0)


def rolling_fingerprint(text: str, window: int = 8) -> int:
    """Min md5_64 over the rolling ``window``-word windows."""
    return min(_md5_64(w) for w in _word_windows(text, window))


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    sa, sb = set(a.tolist()), set(b.tolist())
    u = len(sa | sb)
    return len(sa & sb) / u if u else 0.0


def test_minhash_estimates_jaccard():
    a = _md5_shingles("the quick brown fox jumps over the lazy dog and runs far away today")
    b = _md5_shingles("the quick brown fox jumps over the lazy dog and runs far away home now")
    true_j = jaccard(a, b)
    sa, sb = t.minhash_signatures_batch([a, b])
    est = (sa == sb).mean()
    assert abs(est - true_j) < 0.25
    # identical docs -> identical signatures, equal to the reference's
    assert np.array_equal(sa, minhash_signature(a)) and np.array_equal(sb, minhash_signature(b))


def test_band_keys_deterministic_and_banded():
    sig = minhash_signature(_md5_shingles("a b c d e f g h i j k l"))
    k1, k2 = t.band_keys_batch(np.stack([sig, sig])).tolist()
    assert k1 == k2 == band_keys(sig) and len(k1) == t.BANDS


def test_simhash_properties():
    h1, h2, h3 = t.simhash64_batch(["spark table scan join order merge batch",
                                    "spark table scan join order merge batch",
                                    "completely different words entirely unrelated text"])
    assert h1 == h2
    ham = bin(int(h1) ^ int(h3)).count("1")
    assert ham > 10  # unrelated docs far apart


def test_dedup_finds_planted_duplicates(ray_session, tmp_path):
    """Plant near-duplicates in a copy of the documents table; MinHash and
    SimHash must surface them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = pq.read_table(f"{SF}/documents.parquet")
    texts = src.column("text").to_pylist()
    # duplicate doc 0 exactly and doc 1 with a one-word change
    texts_dup = texts + [texts[0], texts[1].replace(texts[1].split(" ")[0], "zzz", 1)]
    n = len(texts_dup)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts_dup, pa.string()),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["src0"] * n),
            "n_chars": pa.array([len(x) for x in texts_dup], pa.int64()),
        }
    )
    d = tmp_path / "docs"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    pairs = t.q_dedup_minhash(str(d), threshold=0.8)
    found = set(map(tuple, pairs[["doc_a", "doc_b"]].to_numpy()))
    assert (0, 500) in found
    jac = t.q_dedup_ngram_jaccard(str(d), threshold=0.8)
    assert ((jac["doc_a"] == 0) & (jac["doc_b"] == 500)).any()
    sh = t.q_dedup_simhash(str(d), max_hamming=3)
    found_sh = set(map(tuple, sh[["doc_a", "doc_b"]].to_numpy())) if len(sh) else set()
    assert (0, 500) in found_sh


def test_ann_matches_bruteforce(ray_session):
    from ts_pymfe_ray.pipelines.queries import q_embeddings_knn
    import pyarrow.parquet as pq

    out = q_embeddings_knn(SF, k=5, query_vec_id=0)
    emb = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(emb.column("vec_id").to_pylist())
    mat = np.asarray(emb.column("embedding").to_pylist(), dtype=np.float64)
    q = mat[ids.tolist().index(0)]
    sims = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
    top5 = set(ids[np.argsort(-sims)[:5]].tolist())
    assert set(out["vec_id"]) == top5


def test_lang_id_and_quality(ray_session):
    # the testdata's lang column is synthetic (the text is the same
    # English-ish word salad for every label), so accuracy-vs-label is not
    # meaningful; assert the rollup shape plus the detector's behavior on
    # genuine inputs.
    lang = t.q_lang_id(SF)
    assert lang["n_docs"].sum() == 500
    assert t.detect_lang("the quick brown fox is on the hill and it was fine") == "en"
    assert t.detect_lang("这 是 一 段 中 文 文 本 没 有 英 文 停 用 词") == "zh"
    assert t.detect_lang("el perro y el gato en la casa de los vecinos que no se ven") == "es"
    assert t.detect_lang("der hund und die katze sind im haus von den nachbarn als auch hier") == "de"
    assert t.detect_lang("le chien et le chat dans la maison des voisins qui ne se voient pas") == "fr"
    q = t.q_text_quality_full(SF)
    assert (q["avg_words"] > 0).all()
    assert ((q["avg_stopword_ratio"] >= 0) & (q["avg_stopword_ratio"] <= 1)).all()


def test_multimodal_stub(ray_session):
    from ts_pymfe_ray.stages.multimodal import q_multimodal_decode

    out = q_multimodal_decode(SF)
    assert out["n_media"].sum() == 500
    assert set(out["kind"]) == {"blob/" + x for x in ("src0",)} or all(k.startswith("blob/") for k in out["kind"])
    assert ((out["mean_f0"] >= 0) & (out["mean_f0"] <= 1)).all()


def test_bootstrap_pipeline(ray_session, seq_dir_small):
    from ts_pymfe_ray.pipelines.bootstrap import bootstrap_features

    df = bootstrap_features(seq_dir_small, sample_num=4, max_docs=10,
                            groups=("general",), max_cost="cheap")
    assert len(df) >= 1
    lo = df["t_mean.lo"] if "t_mean.lo" in df else None
    # intervals ordered
    lo_cols = [c for c in df.columns if c.endswith(".lo")]
    for c in lo_cols[:5]:
        hi = c[:-3] + ".hi"
        ok = np.isfinite(df[c]) & np.isfinite(df[hi])
        assert (df[c][ok] <= df[hi][ok] + 1e-12).all()


def test_query_determinism_across_runs(ray_session):
    """Driver value-hash stability: repeated runs must produce identical
    frames (unordered block arrival must not leak into results)."""
    import pandas as pd

    from ts_pymfe_ray.pipelines.queries import (
        q_events_window_rollup, q_lineitem_pricing, q_embeddings_knn,
    )

    for fn in (q_events_window_rollup, q_lineitem_pricing, q_embeddings_knn):
        a = fn(SF)
        b = fn(SF)
        pd.testing.assert_frame_equal(a, b)


def test_ivf_ann_recall(ray_session):
    """IVF probe of 4/16 cells must recover most of the exact top-5."""
    from ts_pymfe_ray.pipelines.queries import q_embeddings_knn

    exact = set(q_embeddings_knn(SF, k=5, query_vec_id=0)["vec_id"])
    approx = set(t.q_embeddings_ann_ivf(SF, k=5, query_vec_id=0)["vec_id"])
    recall = len(exact & approx) / 5
    assert recall >= 0.6, f"recall {recall}"
    assert 0 in approx  # the query vector itself always lands in its cell


def test_embeddings_neardup_planted(ray_session):
    """Planted near-duplicates (1% relative noise) must all be detected by
    the hyperplane-LSH banding + in-bucket verify at threshold 0.95."""
    df = t.q_embeddings_neardup(SF, threshold=0.95, plant=6)
    pairs = set(zip(df["vec_a"], df["vec_b"]))
    for i in range(6):
        assert (i, i + t._PLANT_OFFSET) in pairs, f"planted pair {i} missed"
    matched = df[df["vec_b"] >= t._PLANT_OFFSET]
    assert (matched["cosine"] >= 0.99).all()


def test_ngram_jaccard_exact_vs_bruteforce(ray_session):
    """The distributed shingle-inverted-index Jaccard must equal an
    all-pairs brute-force computation over the same md5 shingle sets."""
    import itertools

    import pyarrow.parquet as pq

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sets = {
        i: set(_md5_shingles(x).tolist())
        for i, x in zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist())
    }
    expect = {}
    for a, b in itertools.combinations(sorted(sets), 2):
        inter = len(sets[a] & sets[b])
        if inter:
            j = inter / len(sets[a] | sets[b])
            if j >= 0.5:
                expect[(a, b)] = round(j, 6)
    df = t.q_dedup_ngram_jaccard(SF, threshold=0.5)
    got = {(a, b): j for a, b, j in zip(df["doc_a"], df["doc_b"], df["jaccard"])}
    assert set(got) == set(expect)
    for k in expect:
        assert abs(got[k] - expect[k]) < 1e-9


def test_ivf_partitioned_layout(ray_session, tmp_path):
    """The IVF index is a hive cell=K/ layout; the pruned probe read must
    return the same top-k as scanning every cell partition."""
    import glob
    import os

    import shutil

    shutil.rmtree(t._IVF_CACHE_ROOT, ignore_errors=True)
    out = t.q_embeddings_ann_ivf(SF, k=5, query_vec_id=0)
    idx_dirs = glob.glob(os.path.join(t._IVF_CACHE_ROOT, "*"))
    assert idx_dirs, "no index layout written"
    cells = glob.glob(os.path.join(idx_dirs[0], "cell=*"))
    assert len(cells) > 1, "layout is not partitioned by cell"
    # cached second run must be identical (layout reused, not rebuilt)
    out2 = t.q_embeddings_ann_ivf(SF, k=5, query_vec_id=0)
    assert out.equals(out2)


def test_ivf_hash_sample_unbiased_on_clustered_order(ray_session, tmp_path):
    """Quantizer training sample on a source-ORDERED corpus: rows arrive
    grouped by cluster (source A's vectors first, then B's, ...).  A
    first-N ``limit()`` pull sees only the leading cluster; the md5-coin
    hash sample must cover every cluster.  Also checks the bound: the
    coin keeps roughly sample_rows vectors, not the whole corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    rng = np.random.default_rng(3)
    k, per = 4, 1000
    centers = rng.normal(0.0, 10.0, size=(k, 8))
    vecs = np.concatenate(
        [centers[c] + rng.normal(0, 0.1, size=(per, 8)) for c in range(k)])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(k * per), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
    })
    pq.write_table(tbl, tmp_path / "embeddings.parquet")

    ds = ray.data.read_parquet(str(tmp_path / "embeddings.parquet"),
                               columns=["vec_id", "embedding"])
    sample = t._hash_sample_matrix(ds, 256)
    assert 128 <= sample.shape[0] <= 512, sample.shape  # bounded, near target
    assigned = ((sample[:, None, :] - centers[None, :, :]) ** 2).sum(2).argmin(1)
    assert set(assigned.tolist()) == set(range(k)), (
        "hash sample missed a cluster — order bias")
    # the biased baseline this replaces: first-N covers ONLY cluster 0
    first = np.asarray(ds.limit(256).to_pandas()["embedding"].to_list())
    first_assigned = ((first[:, None, :] - centers[None, :, :]) ** 2).sum(2).argmin(1)
    assert set(first_assigned.tolist()) == {0}


def test_md5vec_bit_parity_with_hashlib():
    """The vectorized MD5 core must match hashlib bit-for-bit on every
    padding regime (empty, one-, two- and many-block messages) — the text
    operators' SQL oracles are locked to md5_number_lower semantics."""
    import hashlib

    from ts_pymfe_ray.functions import md5vec

    rng = np.random.default_rng(7)
    items = [bytes(rng.integers(0, 256, n, dtype=np.uint8))
             for n in list(range(0, 130)) + [183, 184, 247, 248, 500, 4097]]
    rng.shuffle(items)
    lo, hi = md5vec.md5_pair64(*md5vec.pack_bytes(items))
    for i, b in enumerate(items):
        d = hashlib.md5(b).digest()
        assert lo[i] == int.from_bytes(d[8:16], "little")
        assert hi[i] == int.from_bytes(d[:8], "little")


def test_md5vec_word_windows_match_join():
    """The batch window (offset, length) views hash identically to the
    Python ' '.join construction, including multi-byte UTF-8 words."""
    from ts_pymfe_ray.functions import md5vec

    for text, k in [("the quick brown fox jumps over it", 3),
                    ("你好 世界 测试 foo bar", 2),
                    ("one two", 5),  # fewer words than k -> whole text
                    ("", 3)]:
        flat, offs, lens, doc_off = t._doc_windows([text], k)
        got = md5vec.md5_lower64(flat, offs, lens)
        assert doc_off.tolist() == [0, got.size]
        assert got.tolist() == [_md5_64(w) for w in _word_windows(text, k)]


def test_batch_hashers_match_single_doc():
    texts = ["alpha beta gamma delta epsilon zeta", "x", "",
             "one two three four five six seven eight nine ten"]
    sims = t.simhash64_batch(texts)
    fps = t.rolling_fingerprints_batch(texts)
    shingles = t._md5_shingles_batch(texts)
    sigs = t.minhash_signatures_batch(shingles)
    keys = t.band_keys_batch(sigs)
    for i, txt in enumerate(texts):
        assert int(sims[i]) == simhash64(txt)
        assert int(fps[i]) == rolling_fingerprint(txt)
        assert np.array_equal(shingles[i], _md5_shingles(txt))
        assert np.array_equal(sigs[i], minhash_signature(shingles[i]))
        assert keys[i].tolist() == band_keys(sigs[i])


def test_bootstrap_golden(ray_session, seq_dir_small):
    """The bootstrap CI path is DETERMINISTIC (per-(doc, rep) seeded
    resampling), so its output is golden-asserted bitwise — the driver's
    seq_bootstrap_ci rows-only entry rests on this assertion."""
    import json
    import os

    from ts_pymfe_ray.pipelines.bootstrap import bootstrap_features

    with open(os.path.join(os.path.dirname(__file__), "golden_bootstrap.json")) as f:
        golden = json.load(f)
    df = bootstrap_features(seq_dir_small, sample_num=4, max_docs=2000,
                            groups=("general",), max_cost="cheap")
    assert len(df) == golden["n_rows"]
    assert list(df.columns) == golden["columns"]
    for _, r in df.iterrows():
        exp = golden["rows"][r["doc_id"]]
        for c, want in exp.items():
            got = float(r[c])
            if want is None:
                assert not np.isfinite(got), (r["doc_id"], c, got)
            else:
                assert got == want, (r["doc_id"], c, got, want)


def test_dedup_clusters_union_find(ray_session):
    """Cluster materialization: components of the minhash pair graph,
    representative = min doc_id, verified against a fresh traversal."""
    pairs = t.q_dedup_minhash(SF)
    out = t.q_dedup_clusters(SF)
    # independent reachability check
    import collections
    adj = collections.defaultdict(set)
    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        adj[int(a)].add(int(b)); adj[int(b)].add(int(a))
    seen, comps = set(), []
    for start in sorted(adj):
        if start in seen:
            continue
        stack, members = [start], set()
        while stack:
            u = stack.pop()
            if u in members:
                continue
            members.add(u)
            stack.extend(adj[u] - members)
        seen |= members
        comps.append(members)
    exp = sorted((min(m), len(m), max(m)) for m in comps)
    got = list(zip(out["cluster_id"], out["n_docs"], out["max_doc_id"]))
    assert [tuple(map(int, g)) for g in got] == exp


def test_bpe_pattern_re2_parity():
    """The BPE-ish pre-tokenizer must count identically under Python re
    and DuckDB's RE2 (the oracle twin runs the same pattern verbatim)."""
    import duckdb

    con = duckdb.connect()
    samples = ["hello world, it's 2026!", "  doubled  spaces ", "", "三个 字 words42",
               "a1b2c3 --- x_y.z", "tab\tand\nnewline chars"]
    for s in samples:
        py = t.bpe_token_count(s)
        sql = con.execute("SELECT len(regexp_extract_all(?, ?))",
                          [s, t.BPE_SPLIT_PATTERN]).fetchone()[0]
        assert py == sql, (s, py, sql)


def test_multimodal_frame_and_resize_stages(ray_session):
    """Row-expansion (frame-sample) and payload-transform (resize) stage
    plumbing: schemas, counts and deterministic stub values."""
    from ts_pymfe_ray.stages.multimodal import (
        q_multimodal_frames, q_multimodal_resize,
    )

    f = q_multimodal_frames(SF)
    assert (f["n_frames"] % 4 == 0).all()
    assert f["n_frames"].sum() == 4 * 500
    r = q_multimodal_resize(SF)
    assert (r["bytes_out"] <= r["bytes_in"]).all()
    assert r["n_media"].sum() == 500
    assert ((f["mean_f0"] >= 0) & (f["mean_f0"] <= 1)).all()


def test_byte_entropy_skips_empty_payloads(ray_session, tmp_path, check_oracle):
    """A zero-length document has no bytes: the engine drops it before the
    entropy stage, as the DuckDB twin's per-character unnest does."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from ts_pymfe_ray.stages.multimodal import q_multimodal_byte_entropy

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["abracadabra", "", "aaaa bbbb"], pa.string()),
        "source": pa.array(["web", "web", "code"], pa.string()),
    }), tmp_path / "documents.parquet")
    got = q_multimodal_byte_entropy(str(tmp_path))
    assert got["n_media"].tolist() == [1, 1]  # blob/code, blob/web
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    exp = con.execute(e.oracle_sql()["multimodal_byte_entropy"]).fetchdf()
    assert check_oracle.compare("multimodal_byte_entropy", got, exp) == "OK"


def _write_cluster_docs(tmp_path, n_dup: int, n_distinct: int = 10):
    """Docs table with doc_ids [0, n_dup) sharing ONE identical text (a
    degenerate boilerplate cluster) plus n_distinct unique docs."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    boiler = " ".join(f"w{i % 7}tok{i}" for i in range(30))
    texts = [boiler] * n_dup + [
        " ".join(f"uniq{j}x{i}word" for i in range(25)) for j in range(n_distinct)
    ]
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["src0"] * n),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    d = tmp_path / "docs"
    d.mkdir(exist_ok=True)
    pq.write_table(tbl, d / "documents.parquet")
    return str(d)


def test_bucket_cap_star_pairing_linear(ray_session, tmp_path):
    """A 1000-duplicate boilerplate cluster: capped candidate generation
    must emit O(n) pairs (star around the min id), not O(n^2), while the
    cluster materialization stays identical (one component, all members)."""
    n = 1000
    d = _write_cluster_docs(tmp_path, n_dup=n)
    pairs = t.q_dedup_minhash(d, threshold=0.6, bucket_cap=32)
    # star pairing: every duplicate pairs with doc 0 exactly once
    assert len(pairs) == n - 1
    assert (pairs["doc_a"] == 0).all()
    assert sorted(pairs["doc_b"]) == list(range(1, n))
    cl = t.q_dedup_clusters(d, threshold=0.6, bucket_cap=32)
    assert list(map(tuple, cl.to_numpy())) == [(0, n, n - 1)]
    sh = t.q_dedup_simhash(d, max_hamming=3, bucket_cap=32)
    assert len(sh) == n - 1
    assert (sh["doc_a"] == 0).all() and (sh["hamming"] == 0).all()


def test_bucket_cap_equals_uncapped_clusters(ray_session, tmp_path):
    """On a small cluster, capped (star) and exact (all-pairs) candidate
    generation resolve to the SAME connected components."""
    d = _write_cluster_docs(tmp_path, n_dup=24)
    exact = t.q_dedup_clusters(d, threshold=0.6)
    star = t.q_dedup_clusters(d, threshold=0.6, bucket_cap=8)
    import pandas as pd

    pd.testing.assert_frame_equal(exact, star)
    # capped pair set is the star subset
    pairs_star = t.q_dedup_minhash(d, threshold=0.6, bucket_cap=8)
    pairs_all = t.q_dedup_minhash(d, threshold=0.6)
    assert len(pairs_star) == 23 and len(pairs_all) == 24 * 23 // 2


def test_dedup_clusters_label_propagation_matches_union_find(ray_session):
    """The distributed hash-to-min component resolve equals the driver
    union-find on the real sf0.001 pair graph."""
    import pandas as pd

    uf = t.q_dedup_clusters(SF)
    lp = t.q_dedup_clusters_lp(SF)
    pd.testing.assert_frame_equal(uf, lp)


def test_source_overlap_matrix_vs_bruteforce(ray_session):
    """The bitmask+GEMM overlap matrix must equal brute-force per-source
    shingle-set intersections computed directly from the corpus."""
    import itertools

    import pyarrow.dataset as pads

    from ts_pymfe_ray.pipelines.textops import (
        _md5_shingles_batch, q_source_overlap_matrix,
    )

    sf = "/root/testdata/sf0.001"
    tb = pads.dataset(f"{sf}/documents.parquet").to_table()
    sets: dict = {}
    srcs = tb.column("source").to_pylist()
    for src, hs in zip(srcs, _md5_shingles_batch(tb.column("text").to_pylist())):
        sets.setdefault(src, set()).update(hs.tolist())
    expected = {
        tuple(sorted((a, b))): len(sets[a] & sets[b])
        for a, b in itertools.combinations(sets, 2)
        if len(sets[a] & sets[b])
    }
    got = q_source_overlap_matrix(sf)
    got_map = {(r.src_a, r.src_b): r.shared_shingles for r in got.itertuples()}
    assert got_map == expected


def test_kmeans_zero_iters_equals_step_and_converges(ray_session):
    """q_embeddings_kmeans with iters=0 must equal the SQL-oracled
    single-step assignment exactly (same machinery), and Lloyd iterations
    must not increase total inertia."""
    from ts_pymfe_ray.pipelines.queries import (
        q_embeddings_kmeans, q_embeddings_kmeans_step,
    )

    sf = "/root/testdata/sf0.001"
    step = q_embeddings_kmeans_step(sf)
    zero = q_embeddings_kmeans(sf, iters=0)
    assert step.equals(zero)
    five = q_embeddings_kmeans(sf, iters=5)
    assert five["inertia"].sum() <= step["inertia"].sum() + 1e-6
    assert int(five["n_vecs"].sum()) == int(step["n_vecs"].sum())


def curated_report(out_dir: str):
    """Per-(source, split) counts over the materialized curation output —
    the shape of the SQL-oracled q_curation_pipeline report."""
    import pyarrow.dataset as pads

    ds = pads.dataset(out_dir, format="parquet", partitioning="hive",
                      ignore_prefixes=[".", "_", "manifest"])
    df = ds.to_table(columns=["source", "n_chars", "split"]).to_pandas()
    g = df.groupby(["source", "split"]).agg(
        n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
    ).reset_index()
    g["split"] = g["split"].astype(str)
    g["n_docs"] = g["n_docs"].astype("int64")
    g["sum_chars"] = g["sum_chars"].astype("int64")
    return g.sort_values(["source", "split"]).reset_index(drop=True)


def test_curation_materialization_resume_and_report(ray_session, tmp_path):
    """The persisted curation pipeline must (a) produce a per-(source,
    split) report equal to the SQL-oracled counting query, (b) resume
    instantly with an identical manifest fingerprint, and (c) recompute a
    lost shard back to the same fingerprint and report."""
    import os
    import shutil

    from ts_pymfe_ray.pipelines.curation import run_curation
    from ts_pymfe_ray.pipelines.textops import q_curation_pipeline

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    r1 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    oracle = q_curation_pipeline(sf)
    assert curated_report(out).equals(oracle)
    r2 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    assert r2["fingerprint"] == r1["fingerprint"]
    shutil.rmtree(os.path.join(out, "shard=1"))
    r3 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    assert r3["fingerprint"] == r1["fingerprint"]
    assert curated_report(out).equals(oracle)


def test_curation_stage1_loss_recovery(ray_session, tmp_path):
    """Losing the stage-1 hash-bucketed intermediate AND a shard must
    rebuild both and land on the same fingerprint and report."""
    import os
    import shutil

    from ts_pymfe_ray.pipelines.curation import run_curation

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    r1 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    base = curated_report(out)
    shutil.rmtree(os.path.join(out, "_stage1"))
    shutil.rmtree(os.path.join(out, "shard=2"))
    r2 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    assert r2["fingerprint"] == r1["fingerprint"]
    assert curated_report(out).equals(base)


def _write_corpus(root, texts, vectors):
    """documents.parquet and embeddings.parquet of ``texts`` and
    ``vectors`` (ids from 0) under ``root``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = len(texts)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(["src0"] * n, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    }), root / "documents.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vectors)), pa.int64()),
        "embedding": pa.array(vectors, pa.list_(pa.float32())),
        "label": pa.array([0] * len(vectors), pa.int32()),
    }), root / "embeddings.parquet")
    return str(root)


_PAIRS = {"doc_a": "int64", "doc_b": "int64"}
_CLUSTERS = {"cluster_id": "int64", "n_docs": "int64", "max_doc_id": "int64"}
_TYPED = {
    "minhash": (t.q_dedup_minhash, {**_PAIRS, "est_jaccard": "float64"}),
    "simhash": (t.q_dedup_simhash, {**_PAIRS, "hamming": "int64"}),
    "ngram": (t.q_dedup_ngram_jaccard, {**_PAIRS, "jaccard": "float64"}),
    "neardup": (t.q_embeddings_neardup,
                {"vec_a": "int64", "vec_b": "int64", "cosine": "float64"}),
    "clusters": (t.q_dedup_clusters, _CLUSTERS),
    "clusters_lp": (t.q_dedup_clusters_lp, _CLUSTERS),
}


def test_corpus_ops_survive_empty_blocks(ray_session, tmp_path):
    """The dedup family on a corpus with no documents, one document and
    three identical documents (and as many identical vectors): each
    operator returns its typed frame — columns, dtypes and rows — whether
    or not any pair, block or row group reaches the driver."""
    text = " ".join(f"w{i}tok" for i in range(30))
    vec = [float(np.cos(i)) for i in range(16)]
    for n_docs in (0, 1, 3):
        (tmp_path / str(n_docs)).mkdir()
        d = _write_corpus(tmp_path / str(n_docs), [text] * n_docs, [vec] * n_docs)
        pairs = 3 if n_docs == 3 else 0
        rows = {"clusters": int(n_docs == 3), "clusters_lp": int(n_docs == 3)}
        for name, (op, dtypes) in _TYPED.items():
            got = op(d)
            assert got.dtypes.astype(str).to_dict() == dtypes, (n_docs, name)
            assert len(got) == rows.get(name, pairs), (n_docs, name)
    # d: the three identical documents
    assert t.q_dedup_minhash(d)[["doc_a", "doc_b"]].values.tolist() == [
        [0, 1], [0, 2], [1, 2]]
    assert (t.q_dedup_simhash(d)["hamming"] == 0).all()
    assert (t.q_dedup_ngram_jaccard(d)["jaccard"] == 1.0).all()
    assert t.q_dedup_clusters_lp(d).values.tolist() == [[0, 3, 2]]


def test_clusters_lp_raises_when_rounds_run_out(ray_session, monkeypatch):
    """Hash-to-min on a 16-node chain: two rounds cannot converge, and the
    operator raises instead of returning partial labels; with the default
    round budget it equals the union-find clusters."""
    import pandas as pd

    chain = pd.DataFrame({"doc_a": np.arange(15, dtype=np.int64),
                          "doc_b": np.arange(1, 16, dtype=np.int64),
                          "est_jaccard": np.ones(15)})
    monkeypatch.setattr(t, "q_dedup_minhash", lambda *a, **k: chain)
    with pytest.raises(RuntimeError, match="did not converge"):
        t.q_dedup_clusters_lp(SF, max_iters=2)
    got = t.q_dedup_clusters_lp(SF)
    pd.testing.assert_frame_equal(got, t.q_dedup_clusters(SF), check_exact=True)
    assert got.values.tolist() == [[0, 16, 15]]


# ------------------------------------------ per-group bucket references
# The per-bucket bodies the sorted-group kernels replaced, kept as
# independent references: one Python (or pandas) call per group.


def _bucket_pair_indices(n: int, bucket_cap):
    """Candidate-pair indices of one bucket of n sorted distinct ids: all
    pairs, or the star around the first when n > bucket_cap."""
    if n < 2:
        z = np.empty(0, np.int64)
        return z, z
    if bucket_cap is not None and n > bucket_cap:
        return (np.zeros(n - 1, dtype=np.int64),
                np.arange(1, n, dtype=np.int64))
    return np.triu_indices(n, k=1)


def _simhash_verify(ids, sims, bucket_cap, max_hamming):
    """One simhash segment bucket's pairs within ``max_hamming`` bits."""
    out = []
    uniq = sorted(set(zip(ids, sims)))
    if bucket_cap is not None and len(uniq) > bucket_cap:
        hub = [uniq[0]]  # star-pair against the min-id member
        rest = range(1, len(uniq))
    else:
        hub, rest = None, None
    for i in range(len(uniq) if hub is None else 1):
        js = range(i + 1, len(uniq)) if hub is None else rest
        for j in js:
            if uniq[i][0] == uniq[j][0]:
                continue
            ham = bin(uniq[i][1] ^ uniq[j][1]).count("1")
            if ham <= max_hamming:
                out.append((uniq[i][0], uniq[j][0], ham))
    return out


def _bucket_pairs(df, df_cap):
    """One hash bucket's shingle self-merge: a pair row per shared shingle."""
    import pandas as pd

    if df_cap is not None:
        df = df[df.groupby("shingle")["doc_id"].transform("size") <= df_cap]
    m = df.merge(df, on="shingle")
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    return pd.DataFrame({"doc_a": m["doc_id_x"].to_numpy(), "doc_b": m["doc_id_y"].to_numpy(),
                         "size_a": m["size_x"].to_numpy(), "size_b": m["size_y"].to_numpy()})


def _hash_to_min(df):
    """One node's group: each neighbor and the node linked to its min."""
    import pandas as pd

    u = int(df["u"].iloc[0])
    vs = df["v"].to_numpy()
    m = min(u, int(vs.min()))
    nodes = np.unique(np.concatenate([vs, [u]]))
    return pd.DataFrame({"u": nodes.astype(np.int64),
                         "v": np.full(nodes.size, m, dtype=np.int64)})


def _bootstrap_agg(df, feat_cols, lo_q):
    """One doc's bootstrap interval row."""
    import pandas as pd

    row: dict = {"doc_id": df["doc_id"].iloc[0], "n_reps": np.int64(len(df))}
    with np.errstate(all="ignore"):
        for c in feat_cols:
            v = df[c].to_numpy()
            v = v[np.isfinite(v)]
            if v.size:
                row[f"{c}.lo"] = float(np.quantile(v, lo_q))
                row[f"{c}.hi"] = float(np.quantile(v, 1 - lo_q))
            else:
                row[f"{c}.lo"] = np.nan
                row[f"{c}.hi"] = np.nan
    return pd.DataFrame([row])


def _ragged(rng, cap, id_range=12):
    """A random ragged group layout: group sizes drawn from 1, cap,
    cap + 1 and a few random sizes, ids with repeats, as (keys, ids) in
    (key, id) order."""
    sizes = [1, 2, *( [cap, cap + 1] if cap else []),
             *rng.integers(1, 3 * (cap or 4) + 2, int(rng.integers(0, 6)))]
    sizes = rng.permutation(np.array(sizes, np.int64))
    keys = np.repeat(np.sort(rng.choice(1 << 40, sizes.size, replace=False)), sizes)
    ids = rng.integers(0, max(id_range, 3 * (cap or 4)), keys.size)
    order = np.lexsort((ids, keys))
    return keys[order].astype(np.int64), ids[order].astype(np.int64)


def _groups(block, key):
    from ts_pymfe_ray.pipelines import queries as q

    return q._sorted_groups(block, [key], ("doc_id",) if "doc_id" in block.column_names
                            else ())


@pytest.mark.parametrize("cap", [None, 1, 2, 8, 32])
def test_pair_indices_equal_per_bucket_reference(cap):
    """The candidate-pair kernel gives, bitwise and in the same order, the
    row pairs of the per-bucket reference over 300 random ragged layouts
    (groups of 1, cap and cap + 1 ids, repeated ids dropped)."""
    import pyarrow as pa

    rng = np.random.default_rng(22 + (cap or 0))
    for _ in range(300):
        keys, ids = _ragged(rng, cap)
        block, starts = _groups(pa.table({"key": keys, "doc_id": ids}), "key")
        assert block.column("doc_id").to_numpy().tolist() == ids.tolist()
        ends = np.append(starts[1:], ids.size)
        ref_i, ref_j = [], []
        for a, b in zip(starts, ends):
            u, first = np.unique(ids[a:b], return_index=True)
            ii, jj = _bucket_pair_indices(u.size, cap)
            ref_i.append(a + first[ii])
            ref_j.append(a + first[jj])
        ii, jj = t._pair_indices(ids, starts, cap)
        assert ii.dtype == jj.dtype == np.int64
        assert np.array_equal(ii, np.concatenate([np.empty(0, np.int64), *ref_i]))
        assert np.array_equal(jj, np.concatenate([np.empty(0, np.int64), *ref_j]))
    empty = t._pair_indices(np.empty(0, np.int64), np.empty(0, np.int64), cap)
    assert [x.size for x in empty] == [0, 0]


@pytest.mark.parametrize("cap", [None, 1, 2, 8])
def test_simhash_pairs_equal_verify_loop(cap):
    """The simhash kernel's pairs and hamming distances equal the per-bucket
    verify loop's, row for row, on random segment buckets whose docs sit
    0-6 bits from a few base hashes."""
    import pyarrow as pa

    rng = np.random.default_rng(5 + (cap or 0))
    found = 0
    for _ in range(200):
        keys, ids = _ragged(rng, cap)
        base = rng.integers(0, 2**63, 3, dtype=np.uint64) * np.uint64(2)
        n_ids = int(ids.max()) + 1 if ids.size else 0
        flips = np.zeros(n_ids, np.uint64)
        for k in range(n_ids):
            for bit in rng.choice(64, int(rng.integers(0, 4)), replace=False):
                flips[k] |= np.uint64(1) << np.uint64(bit)
        sim_of = base[np.arange(n_ids) % 3] ^ flips
        block, starts = _groups(pa.table({"key": keys, "doc_id": ids,
                                          "sim": pa.array(sim_of[ids], pa.uint64())}), "key")
        ends = np.append(starts[1:], ids.size)
        ref = []
        for a, b in zip(starts, ends):
            ref += _simhash_verify(ids[a:b].tolist(), sim_of[ids[a:b]].tolist(), cap, 3)
        got = t._simhash_pairs(block, starts, cap, 3)
        assert got.schema.types == [pa.int64()] * 3
        assert list(zip(*(got.column(c).to_pylist()
                          for c in ("doc_a", "doc_b", "hamming")))) == ref
        found += len(ref)
    assert found


@pytest.mark.parametrize("df_cap", [None, 1, 2, 3])
def test_shingle_pairs_equal_bucket_self_merge(df_cap):
    """The shingle kernel's pair rows are the multiset of the per-bucket
    pandas self-merge over hash buckets of the same shingle rows."""
    import pandas as pd
    import pyarrow as pa

    rng = np.random.default_rng(11 + (df_cap or 0))
    for _ in range(100):
        docs = [np.unique(rng.integers(0, 40, int(rng.integers(1, 12))))
                for _ in range(int(rng.integers(0, 9)))]
        sizes = np.array([s.size for s in docs], np.int64)
        rows = pd.DataFrame({
            "shingle": np.concatenate([np.empty(0, np.int64), *docs]).astype(np.int64),
            "doc_id": np.repeat(np.arange(len(docs), dtype=np.int64), sizes),
            "size": np.repeat(sizes, sizes),
        })
        buckets = rows["shingle"] % 4
        ref = pd.concat([_bucket_pairs(g, df_cap) for _, g in rows.groupby(buckets)]
                        + [_bucket_pairs(rows.iloc[:0], df_cap)])
        block, starts = _groups(pa.Table.from_pandas(rows, preserve_index=False), "shingle")
        got = t._shingle_pairs(block, starts, df_cap).to_pandas()
        cols = ["doc_a", "doc_b", "size_a", "size_b"]
        pd.testing.assert_frame_equal(
            got.sort_values(cols).reset_index(drop=True),
            ref.astype("int64").sort_values(cols).reset_index(drop=True), check_exact=True)


def test_hash_to_min_equals_per_node_reference():
    """A hash-to-min round's distinct edges equal the per-node reference's
    on random edge lists (repeated edges, self loops, single neighbors)."""
    import pandas as pd
    import pyarrow as pa

    from ts_pymfe_ray.pipelines import queries as q

    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(0, 40))
        edges = pa.table({"u": rng.integers(0, 12, n), "v": rng.integers(0, 12, n)})
        block, starts = q._sorted_groups(edges, ["u"], ("v",))
        got = t._hash_to_min(block, starts).to_pandas().drop_duplicates()
        df = edges.to_pandas()
        ref = pd.concat([_hash_to_min(g) for _, g in df.groupby("u")]
                        + [pd.DataFrame({"u": [], "v": []}, dtype="int64")])
        pd.testing.assert_frame_equal(
            got.sort_values(["u", "v"]).reset_index(drop=True),
            ref.drop_duplicates().sort_values(["u", "v"]).reset_index(drop=True),
            check_exact=True)


def test_bootstrap_rows_equal_per_doc_agg():
    """The bootstrap interval kernel's rows equal the per-doc pandas
    aggregate bit for bit: replicate counts, and quantiles of the finite
    values only (NaN when a doc has none)."""
    import pandas as pd
    import pyarrow as pa

    from ts_pymfe_ray.pipelines import bootstrap as bs
    from ts_pymfe_ray.pipelines import queries as q

    rng = np.random.default_rng(9)
    cols = ["f.mean", "g"]
    for _ in range(100):
        reps = rng.integers(1, 9, int(rng.integers(0, 7)))
        n = int(reps.sum())
        doc = np.repeat([f"d{i}" for i in range(reps.size)], reps).astype(object)
        vals = {c: rng.normal(size=n) for c in cols}
        vals["g"][rng.random(n) < 0.4] = rng.choice([np.nan, np.inf, -np.inf])
        df = pd.DataFrame({"doc_id": doc, **vals}).sample(frac=1.0, random_state=1)
        block, starts = q._sorted_groups(
            pa.Table.from_pandas(df, preserve_index=False), ["doc_id"])
        got = bs._interval_rows(block, starts, cols, 0.025).to_pandas()
        assert list(got.columns) == ["doc_id", "n_reps", "f.mean.lo", "f.mean.hi",
                                     "g.lo", "g.hi"]
        if not n:
            assert got.empty
            continue
        ref = pd.concat([_bootstrap_agg(g, cols, 0.025) for _, g in df.groupby("doc_id")])
        pd.testing.assert_frame_equal(got, ref.reset_index(drop=True), check_exact=True)
