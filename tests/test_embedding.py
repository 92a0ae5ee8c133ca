"""Unit tests for repro.embedding (text, query, tuple embedders, clustering)."""

import numpy as np
import pytest

from repro.db import Comparison, SPJQuery, compute_database_stats, sql
from repro.embedding import (
    QueryEmbedder,
    TokenHasher,
    TupleEmbedder,
    kmeans,
    kmedoids,
    select_representatives,
)


class TestTokenHasher:
    def test_deterministic(self):
        a = TokenHasher().token_vector("hello")
        b = TokenHasher().token_vector("hello")
        assert np.allclose(a, b)

    def test_distinct_tokens_differ(self):
        hasher = TokenHasher()
        assert not np.allclose(hasher.token_vector("a"), hasher.token_vector("b"))

    def test_unit_norm(self):
        v = TokenHasher().token_vector("anything")
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_embed_empty_is_zero(self):
        assert np.allclose(TokenHasher().embed([]), 0.0)

    def test_embed_normalized(self):
        v = TokenHasher().embed(["a", "b", "c"])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_shared_tokens_increase_similarity(self):
        hasher = TokenHasher()
        base = hasher.embed(["t1", "t2", "t3", "t4"])
        near = hasher.embed(["t1", "t2", "t3", "x"])
        far = hasher.embed(["y1", "y2", "y3", "y4"])
        assert base @ near > base @ far  # unit vectors: @ is the cosine

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            TokenHasher(dim=1)

    def test_embed_many_shape(self):
        mat = TokenHasher(dim=16).embed_many([["a"], ["b"], ["c"]])
        assert mat.shape == (3, 16)


class TestQueryEmbedder:
    def test_same_query_same_vector(self, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = QueryEmbedder(stats=stats)
        q = sql("SELECT * FROM movies WHERE movies.year > 2000")
        assert np.allclose(embedder.embed(q), embedder.embed(q))

    def test_similar_constants_closer_than_different_shape(self, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = QueryEmbedder(stats=stats)
        a = sql("SELECT * FROM movies WHERE movies.year > 2000")
        b = sql("SELECT * FROM movies WHERE movies.year > 2001")
        c = sql("SELECT * FROM cast_info WHERE cast_info.actor = 'ann'")
        va, vb, vc = embedder.embed(a), embedder.embed(b), embedder.embed(c)
        assert va @ vb > va @ vc

    def test_bucket_tokens_from_stats(self, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = QueryEmbedder(stats=stats)
        tokens = embedder.tokens(sql("SELECT * FROM movies WHERE movies.year > 2005"))
        assert any(t.startswith("bucket:") for t in tokens)

    def test_no_stats_no_buckets(self):
        embedder = QueryEmbedder()
        tokens = embedder.tokens(sql("SELECT * FROM movies WHERE movies.year > 2005"))
        assert not any(t.startswith("bucket:") for t in tokens)

    def test_aggregate_embeds_via_spj_core(self, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = QueryEmbedder(stats=stats)
        agg = sql("SELECT genre, COUNT(*) FROM movies GROUP BY genre")
        tokens = embedder.tokens(agg)
        assert "agg:count" in tokens
        assert "table:movies" in tokens

    def test_workload_matrix(self, mini_db):
        embedder = QueryEmbedder()
        queries = [sql("SELECT * FROM movies"), sql("SELECT * FROM cast_info")]
        assert embedder.embed_workload(queries).shape == (2, embedder.dim)


class TestTupleEmbedder:
    def test_row_tokens_include_column_names(self, movies, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = TupleEmbedder(stats=stats)
        tokens = embedder.row_tokens(movies, 0)
        assert "col:movies.genre" in tokens
        assert "val:movies.genre=drama" in tokens
        assert "table:movies" in tokens

    def test_similar_rows_closer(self, movies, mini_db):
        stats = compute_database_stats(mini_db)
        embedder = TupleEmbedder(stats=stats)
        # Rows 1 and 4 share genre=action and year=2005; row 3 is a 2020
        # scifi title, so it shares neither value token nor year bucket.
        v1 = embedder.embed_row(movies, 1)
        v4 = embedder.embed_row(movies, 4)
        v3 = embedder.embed_row(movies, 3)
        assert v1 @ v4 > v1 @ v3

    def test_embed_table_shape(self, movies):
        embedder = TupleEmbedder(dim=16)
        assert embedder.embed_table(movies).shape == (6, 16)
        assert embedder.embed_table(movies, [1, 3]).shape == (2, 16)

    def test_group_embedding_normalized(self, movies, cast):
        embedder = TupleEmbedder()
        v = embedder.embed_group([(movies, 0), (cast, 0)])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_empty_group_zero(self, movies):
        assert np.allclose(TupleEmbedder().embed_group([]), 0.0)


class TestClustering:
    def _blobs(self, rng):
        a = rng.normal(0, 0.1, size=(20, 4))
        b = rng.normal(5, 0.1, size=(20, 4))
        return np.vstack([a, b])

    def test_kmeans_separates_blobs(self, rng):
        points = self._blobs(rng)
        result = kmeans(points, 2, rng)
        labels_a = set(result.labels[:20].tolist())
        labels_b = set(result.labels[20:].tolist())
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_kmeans_k_clipped(self, rng):
        points = rng.standard_normal((3, 2))
        assert kmeans(points, 10, rng).k == 3

    def test_kmeans_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(np.zeros((0, 2)), 2, rng)

    def test_medoids_are_members(self, rng):
        points = self._blobs(rng)
        result = kmeans(points, 2, rng)
        for c in range(2):
            assert result.medoids[c] in result.members(result.labels[result.medoids[c]])

    def test_kmedoids_separates_blobs(self, rng):
        points = self._blobs(rng)
        result = kmedoids(points, 2, rng)
        assert result.labels[0] != result.labels[-1]
        assert len(set(result.medoids.tolist())) == 2

    def test_select_representatives_bounds(self, rng):
        points = rng.standard_normal((30, 4))
        reps = select_representatives(points, 5, rng)
        assert 1 <= len(reps) <= 5
        assert all(0 <= r < 30 for r in reps)

    def test_select_representatives_all_when_few(self, rng):
        points = rng.standard_normal((3, 4))
        assert select_representatives(points, 10, rng) == [0, 1, 2]

    def test_select_representatives_empty(self, rng):
        assert select_representatives(np.zeros((0, 4)), 3, rng) == []
