"""Tests for trained-model save/load (repro.core.persistence)."""

import json
import os
import sys
import zipfile
from collections import Counter

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import (
    ASQPConfig,
    ASQPSession,
    ASQPTrainer,
    ModelError,
    build_coverage,
    load_model,
    save_model,
)
from repro.datasets import load_imdb
from repro.db import statistics
from tests.test_action_env import actions_of, as_rows

# ``repro.core.preprocess`` names the function; the module holds the cap.
preprocess_module = sys.modules["repro.core.preprocess"]


def _config():
    return ASQPConfig(
        memory_budget=60, n_iterations=2, n_actors=2, episodes_per_actor=1,
        action_space_target=40, n_query_representatives=5,
        n_candidate_rollouts=1, learning_rate=1e-3, seed=8,
    )


@pytest.fixture(scope="module")
def trained(tiny_flights):
    return ASQPTrainer(tiny_flights.db, tiny_flights.workload, _config()).train()


class TestRoundTrip:
    def test_same_approximation_set(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        assert loaded.approximation_set().keys() == trained.approximation_set().keys()

    def test_session_serves_the_fit_set_when_load_resamples(
        self, tiny_flights, tmp_path, monkeypatch
    ):
        """Load re-samples large coverages; the served set is the stored one.

        At this cap, running Alg. 2 again on the loaded model's re-sampled
        coverages picks a different set than the fit did.
        """
        monkeypatch.setattr(preprocess_module, "MAX_REQUIREMENT_ROWS", 5)
        model = ASQPTrainer(tiny_flights.db, tiny_flights.workload, _config()).train()
        directory = str(tmp_path / "model")
        save_model(model, directory)
        loaded = load_model(directory, tiny_flights.db)
        assert any(
            as_rows(a.tables, a.ids) != as_rows(b.tables, b.ids)
            for a, b in zip(loaded.coverages, model.coverages)
        )
        session = ASQPSession(loaded, auto_fine_tune=False)
        assert session.approximation_set.keys() == model.approximation_set().keys()

    def test_config_and_history_preserved(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        assert loaded.config == trained.config
        assert len(loaded.history) == len(trained.history)
        assert loaded.setup_seconds == trained.setup_seconds
        assert loaded.fine_tune_count == trained.fine_tune_count

    def test_action_space_preserved(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        assert len(loaded.action_space) == len(trained.action_space)
        assert actions_of(loaded.action_space) == actions_of(trained.action_space)

    def test_coverages_rebuilt_equivalent(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        assert len(loaded.coverages) == len(trained.coverages)
        for a, b in zip(loaded.coverages, trained.coverages):
            assert a.denominator == b.denominator
            assert sorted(as_rows(a.tables, a.ids)) == sorted(as_rows(b.tables, b.ids))

    def test_loaded_model_opens_session(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        session = ASQPSession(loaded, auto_fine_tune=False)
        outcome = session.query(tiny_flights.workload.queries[0])
        assert outcome is not None

    def test_training_scores_match(self, trained, tiny_flights, tmp_path):
        save_model(trained, str(tmp_path / "model"))
        loaded = load_model(str(tmp_path / "model"), tiny_flights.db)
        assert np.allclose(loaded.training_scores(), trained.training_scores())

    def test_arrays_stored_uncompressed_and_compressed_ones_still_load(
        self, trained, tiny_flights, tmp_path
    ):
        """Directories saved before ``arrays.npz`` stopped being zlib-ed."""
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "arrays.npz")
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as arrays:
            stored = dict(arrays)
        np.savez_compressed(path, **stored)
        loaded = load_model(directory, tiny_flights.db)
        for net, original in (
            (loaded.agent.actor.net, trained.agent.actor.net),
            (loaded.agent.critic.net, trained.agent.critic.net),
        ):
            for ours, theirs in zip(net.parameters(), original.parameters()):
                np.testing.assert_array_equal(ours, theirs)

    def test_version_check(self, trained, tiny_flights, tmp_path):
        import json, os

        save_model(trained, str(tmp_path / "model"))
        path = tmp_path / "model" / "config.json"
        payload = json.loads(path.read_text())
        # 1: the format before the config lost its unvaried fields;
        # 2: the format before the selected set was stored;
        # 3: the format that still stored a vector per action;
        # 4: the format that stored no coverage and kept actions in JSON.
        for version in (999, 1, 2, 3, 4):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(
                ModelError, match=f"version {version} in .*config.json"
            ):
                load_model(str(tmp_path / "model"), tiny_flights.db)


class TestStoredCoverages:
    """``load_model`` executes only the representatives whose coverage was
    sampled; every other coverage is read back from ``arrays.npz``."""

    @staticmethod
    def _load_spying(model, db, tmp_path, monkeypatch):
        """The loaded model and the SQL of every query its load executed."""
        directory = str(tmp_path / "model")
        save_model(model, directory)
        executed = []
        execute = preprocess_module.execute

        def spy(database, query):
            executed.append(query.to_sql())
            return execute(database, query)

        monkeypatch.setattr(preprocess_module, "execute", spy)
        return load_model(directory, db), executed

    def test_nothing_is_executed_when_no_coverage_was_sampled(
        self, trained, tiny_flights, tmp_path, monkeypatch
    ):
        assert not any(c.sampled for c in trained.coverages)
        loaded, executed = self._load_spying(
            trained, tiny_flights.db, tmp_path, monkeypatch
        )
        assert executed == []
        for ours, theirs in zip(loaded.coverages, trained.coverages):
            assert ours.tables == theirs.tables
            np.testing.assert_array_equal(ours.ids, theirs.ids)

    def test_exactly_the_sampled_representatives_are_executed(
        self, trained, tiny_flights, tmp_path, monkeypatch
    ):
        rows = sorted(len(c.ids) for c in trained.coverages)
        cap = rows[len(rows) // 2]
        monkeypatch.setattr(preprocess_module, "MAX_REQUIREMENT_ROWS", cap)
        model = ASQPTrainer(tiny_flights.db, tiny_flights.workload, _config()).train()
        sampled = [c.sampled for c in model.coverages]
        assert 0 < sum(sampled) < len(sampled)
        loaded, executed = self._load_spying(
            model, tiny_flights.db, tmp_path, monkeypatch
        )
        assert executed == [
            query.to_sql()
            for query, was_sampled in zip(model.preprocessed.representatives, sampled)
            if was_sampled
        ]
        assert [c.sampled for c in loaded.coverages] == sampled
        for ours, theirs in zip(loaded.coverages, model.coverages):
            if not theirs.sampled:
                np.testing.assert_array_equal(ours.ids, theirs.ids)
        # Each loaded coverage is what executing every representative again,
        # in order on one generator, gives (what format 4 loaded).
        rng = np.random.default_rng(model.config.seed)
        for query, ours in zip(loaded.preprocessed.representatives, loaded.coverages):
            again = build_coverage(
                tiny_flights.db, query, ours.weight, model.config.frame_size, rng
            )
            assert (ours.name, ours.denominator, ours.tables, ours.sampled) == (
                again.name, again.denominator, again.tables, again.sampled
            )
            np.testing.assert_array_equal(ours.ids, again.ids)


def test_each_table_is_scanned_once_from_generation_to_session(tmp_path, monkeypatch):
    """generate -> fit -> save -> load -> open on one database computes
    each table's statistics once: the workload generators, ``preprocess``
    and ``load_model`` share them."""
    scanned = Counter()
    scan = statistics.compute_table_stats

    def counting_scan(table):
        scanned[id(table)] += 1
        return scan(table)

    monkeypatch.setattr(statistics, "compute_table_stats", counting_scan)
    bundle = load_imdb(scale=0.1, n_queries=20, n_aggregate_queries=8)
    model = ASQPTrainer(bundle.db, bundle.workload, _config()).train()
    directory = str(tmp_path / "model")
    save_model(model, directory)
    ASQPSession(load_model(directory, bundle.db), auto_fine_tune=False)
    assert [scanned[id(table)] for table in bundle.db] == [1] * len(list(bundle.db))


ARTIFACTS = (
    "config.json", "queries.json", "arrays.npz", "history.json", "selected.json",
)

#: The ``arrays.npz`` members that hold the action space and the stored
#: coverages.
KEY_MEMBERS = (
    "table_names", "action_tables", "action_rows", "action_offsets",
    "action_sources", "coverage_sampled", "coverage_shapes", "coverage_tables",
    "coverage_ids",
)
#: Network members: a layer is built from its stored arrays, and one
#: missing or of other sizes (not broadcast into a drawn one) is damage.
NETWORK_MEMBERS = ("actor_w0", "actor_b2", "critic_w1", "critic_b0")


def _rewrite_member(path, name, change):
    """Replace member ``name`` of the npz at ``path`` by ``change(member)``,
    or drop it if that is None."""
    with np.load(path) as arrays:
        stored = dict(arrays)
    value = change(stored.pop(name))
    if value is not None:
        stored[name] = value
    np.savez(path, **stored)


def _damage(path, how):
    if how == "missing":
        os.remove(path)
    elif how == "cut in half":
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
    else:  # valid JSON of the wrong shape
        with open(path, "w") as handle:
            handle.write('{"unexpected": 1}')


class TestDamagedModel:
    """One answer for a damaged model directory (like ``rundir.RunError``)."""

    @pytest.mark.parametrize("how", ["missing", "cut in half", "wrong shape"])
    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_load_raises_one_error_naming_the_file(
        self, trained, tiny_flights, tmp_path, artifact, how
    ):
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, artifact)
        _damage(path, how)
        with pytest.raises(ModelError) as info:
            load_model(directory, tiny_flights.db)
        assert path in str(info.value)
        assert isinstance(info.value, ValueError)

    def test_selected_row_the_database_lacks(self, trained, tiny_flights, tmp_path):
        """``Database.subset`` would drop an unknown row id without a word."""
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "selected.json")
        with open(path) as handle:
            stored = json.load(handle)
        table = next(iter(stored))
        for selected in (
            {**stored, table: stored[table] + [10**9]},
            {**stored, "no_such_table": [0]},
        ):
            with open(path, "w") as handle:
                json.dump(selected, handle)
            with pytest.raises(ModelError, match="selected.json"):
                load_model(directory, tiny_flights.db)

    @pytest.mark.parametrize("damage", ["bad_row_id", "bad_table"])
    def test_action_key_the_database_lacks(
        self, trained, tiny_flights, tmp_path, damage
    ):
        """A bad key used to load, and a fine-tune then served it."""
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "arrays.npz")
        if damage == "bad_row_id":
            _rewrite_member(path, "action_rows", lambda rows: np.r_[10**9, rows[1:]])
        else:
            with np.load(path) as arrays:
                code = len(arrays["table_names"])
            _rewrite_member(
                path, "table_names", lambda names: np.append(names, "no_such_table")
            )
            _rewrite_member(path, "action_tables", lambda codes: np.r_[code, codes[1:]])
        with pytest.raises(ModelError, match="arrays.npz") as info:
            load_model(directory, tiny_flights.db)
        assert "does not hold" in str(info.value)

    @pytest.mark.parametrize("how", ["missing", "truncated", "wrong shape"])
    @pytest.mark.parametrize("member", KEY_MEMBERS + NETWORK_MEMBERS)
    def test_damaged_key_array_raises_one_error_naming_the_file(
        self, trained, tiny_flights, tmp_path, member, how
    ):
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "arrays.npz")
        change = {
            "missing": lambda array: None,
            "truncated": lambda array: array[: len(array) // 2],
            "wrong shape": lambda array: array.reshape(len(array), -1)[:, :1].T,
        }[how]
        _rewrite_member(path, member, change)
        with pytest.raises(ModelError) as info:
            load_model(directory, tiny_flights.db)
        assert path in str(info.value)

    def test_coverage_row_the_database_lacks(self, trained, tiny_flights, tmp_path):
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "arrays.npz")
        _rewrite_member(path, "coverage_ids", lambda ids: np.r_[10**9, ids[1:]])
        with pytest.raises(ModelError, match="arrays.npz names rows of table") as info:
            load_model(directory, tiny_flights.db)
        assert "does not hold" in str(info.value)

    def test_query_cli_prints_one_line_and_exits_1(
        self, trained, tmp_path, capsys
    ):
        directory = str(tmp_path / "model")
        save_model(trained, directory)
        path = os.path.join(directory, "arrays.npz")
        _damage(path, "cut in half")
        code = main([
            "query", "--model", directory, "--dataset", "flights",
            "--scale", "0.1", "--sql", "SELECT * FROM flights",
        ])
        assert code == 1
        out = capsys.readouterr().out.strip()
        assert len(out.splitlines()) == 1
        assert out.startswith(f"unreadable model file {path}")
        assert "Traceback" not in out
