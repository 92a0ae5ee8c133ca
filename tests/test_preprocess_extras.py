"""Deeper tests for preprocessing internals: pool split and caps."""

import pytest

from repro.core import ASQPConfig, build_coverage, preprocess
from repro.core.preprocess import MAX_REQUIREMENT_ROWS
from repro.db import sql
from repro.embedding import QueryRelaxer
from tests.test_action_env import actions_of, as_rows


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
        sources = set(prep.action_space.sources.tolist())
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
            codes = prep.action_space.sources.tolist()
            return sum(1 for c in codes if c % 2 == 0) / len(codes)
        assert exact_fraction(balanced) > exact_fraction(lopsided)

    def test_exact_actions_cover_representative_results(self, tiny_imdb):
        """Tuples of even-coded actions appear in some coverage requirement."""
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        required = {
            key
            for coverage in prep.coverages
            for requirement in as_rows(coverage.tables, coverage.ids)
            for key in requirement
        }
        for keys, source in actions_of(prep.action_space):
            if source % 2 == 0:
                assert set(keys) <= required


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
        assert as_rows(coverage.tables, coverage.ids) == []


class TestWeightingAndLimits:
    def test_representative_weights_follow_workload(self, tiny_imdb):
        prep = preprocess(tiny_imdb.db, tiny_imdb.workload, _config())
        weights = [coverage.weight for coverage in prep.coverages]
        assert all(weight > 0 for weight in weights)
        assert sum(weights) == pytest.approx(1.0)

    def test_limit_queries_handled(self, tiny_imdb):
        """LIMITed workload queries go through relaxation (limit lifted)."""
        from repro.datasets import Workload

        limited = Workload(
            [q.with_limit(3) for q in list(tiny_imdb.workload)[:6]]
        )
        prep = preprocess(tiny_imdb.db, limited, _config(n_query_representatives=3))
        assert len(prep.action_space) > 0
        relaxer = QueryRelaxer(prep.stats)
        for representative in prep.representatives:
            assert relaxer.relax(representative).limit is None
