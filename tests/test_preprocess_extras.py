"""Deeper tests for preprocessing internals: pool split, caps, embeddings."""

import numpy as np
import pytest

from repro.core import ASQPConfig, build_coverage, preprocess
from repro.core.preprocess import MAX_REQUIREMENT_ROWS, embed_actions
from repro.db import Comparison, Database, SPJQuery, sql
from repro.embedding import DEFAULT_DIM, TupleEmbedder


def _config(**overrides):
    defaults = dict(
        memory_budget=60,
        action_space_target=40,
        n_query_representatives=5,
        seed=3,
    )
    defaults.update(overrides)
    return ASQPConfig(**defaults)


class TestExactExtensionSplit:
    def test_actions_partition_by_parity(self, tiny_imdb):
        """Even source codes = exact rows, odd = relaxation extensions."""
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        sources = {action.source_query for action in prep.action_space}
        assert any(code % 2 == 0 for code in sources), "no exact actions"
        # Relaxation should add at least some extension rows on this data.
        assert any(code % 2 == 1 for code in sources), "no extension actions"

    def test_exact_share_zero_yields_extension_heavy_space(self, tiny_imdb):
        lopsided = preprocess(
            tiny_imdb.db, tiny_imdb.workload, _config(exact_row_share=0.05)
        )
        balanced = preprocess(
            tiny_imdb.db, tiny_imdb.workload, _config(exact_row_share=0.95)
        )
        def exact_fraction(prep):
            codes = [a.source_query for a in prep.action_space]
            return sum(1 for c in codes if c % 2 == 0) / len(codes)
        assert exact_fraction(balanced) > exact_fraction(lopsided)

    def test_exact_actions_cover_representative_results(self, tiny_imdb):
        """Tuples of even-coded actions appear in some coverage requirement."""
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        required = {
            key
            for coverage in prep.coverages
            for requirement in coverage.requirements
            for key in requirement
        }
        for action in prep.action_space:
            if action.source_query % 2 == 0:
                assert set(action.keys) <= required


class TestCoverageCaps:
    def test_requirements_capped(self, mini_db, rng):
        # Fabricate a query with a big result by scaling the database.
        big = mini_db.scale(MAX_REQUIREMENT_ROWS)  # 6 * cap rows in movies
        query = sql("SELECT * FROM movies")
        coverage = build_coverage(big, query, 1.0, frame_size=50, rng=rng)
        assert len(coverage.requirements) == MAX_REQUIREMENT_ROWS
        # The denominator still reflects the frame cap, not the sample.
        assert coverage.denominator == 50

    def test_empty_query_coverage(self, mini_db, rng):
        query = sql("SELECT * FROM movies WHERE movies.year > 9999")
        coverage = build_coverage(mini_db, query, 1.0, frame_size=50, rng=rng)
        assert coverage.is_empty
        assert list(coverage.requirements) == []


class TestEmbedActions:
    def test_shapes_and_norms(self, tiny_imdb):
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        vectors = prep.action_space.embeddings
        norms = np.linalg.norm(vectors, axis=1)
        assert vectors.shape[1] == DEFAULT_DIM
        assert np.all((norms > 0.99) & (norms < 1.01))

    def test_embed_actions_standalone(self, tiny_imdb):
        from repro.core import Action

        table = tiny_imdb.db.table("title")
        actions = [
            Action(keys=(("title", int(table.row_ids[0])),)),
            Action(keys=(("title", int(table.row_ids[1])),
                         ("title", int(table.row_ids[2])))),
        ]
        embedder = TupleEmbedder(dim=16)
        vectors = embed_actions(tiny_imdb.db, actions, embedder)
        assert vectors.shape == (2, 16)

    def test_empty_action_list(self, tiny_imdb):
        vectors = embed_actions(tiny_imdb.db, [], TupleEmbedder(dim=16))
        assert vectors.shape == (0, 16)

    def test_missing_row_id_names_table_and_ids(self, tiny_imdb):
        """A model attached to other data used to fail with ``KeyError: 123``."""
        from repro.core import Action

        n = len(tiny_imdb.db.table("title"))
        actions = [Action(keys=(("title", 0), ("title", n + 7), ("person", 0)))]
        with pytest.raises(KeyError, match=rf"table 'title' has no row with id \[{n + 7}\]"):
            embed_actions(tiny_imdb.db, actions, TupleEmbedder(dim=16))
        empty = Database([table.take([]) for table in tiny_imdb.db])
        with pytest.raises(KeyError, match=rf"table 'title' has no row with id \[0, {n + 7}\]"):
            embed_actions(empty, actions, TupleEmbedder(dim=16))

    def test_sub_database_with_shuffled_rows(self, tiny_imdb, rng):
        """``Table.take`` of shuffled positions leaves ``row_ids`` unsorted."""
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        shuffled = Database(
            [table.take(rng.permutation(len(table))) for table in tiny_imdb.db]
        )
        assert any((np.diff(table.row_ids) < 0).any() for table in shuffled)
        actions = list(prep.action_space)
        vectors = embed_actions(
            shuffled, actions, TupleEmbedder(stats=prep.stats)
        )
        assert np.array_equal(vectors, prep.action_space.embeddings)

    def test_repeated_key_counts_twice_in_the_mean(self, tiny_imdb):
        from repro.core import Action

        embedder = TupleEmbedder(dim=16)
        a, b = ("title", 0), ("title", 1)
        once, twice, alone = embed_actions(
            tiny_imdb.db,
            [Action(keys=(a, b)), Action(keys=(a, a, b)), Action(keys=(a,))],
            embedder,
        )
        assert not np.allclose(once, twice)
        table = tiny_imdb.db.table("title")
        mean = (2 * embedder.embed_row(table, 0) + embedder.embed_row(table, 1)) / 3
        assert np.allclose(twice, mean / np.linalg.norm(mean))
        assert np.array_equal(alone, embedder.embed_row(table, 0))


class TestWeightingAndLimits:
    def test_representative_weights_follow_workload(self, tiny_imdb):
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        assert (prep.representative_weights > 0).all()
        assert prep.representative_weights.sum() == pytest.approx(1.0)

    def test_limit_queries_handled(self, tiny_imdb):
        """LIMITed workload queries go through relaxation (limit lifted)."""
        from repro.datasets import Workload

        limited = Workload(
            [q.with_limit(3) for q in list(tiny_imdb.workload)[:6]]
        )
        prep = preprocess(tiny_imdb.db, limited, _config(n_query_representatives=3))
        assert len(prep.action_space) > 0
        for relaxed in prep.relaxed_representatives:
            assert relaxed.limit is None
