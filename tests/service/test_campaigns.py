"""Tests for the campaign registry."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.mechanisms import randomized_response
from repro.protocol import ProtocolSession
from repro.service import Campaign, CampaignManager, validate_campaign_name
from repro.workloads import histogram


@pytest.fixture
def manager() -> CampaignManager:
    manager = CampaignManager()
    manager.create(
        "demo",
        workload="Histogram",
        domain_size=8,
        epsilon=1.0,
        mechanism="Randomized Response",
    )
    return manager


class TestCampaignNames:
    @pytest.mark.parametrize("name", ["a", "latency-v2", "A.b_c-9", "x" * 64])
    def test_accepts_safe_names(self, name):
        assert validate_campaign_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["", "../etc", "a/b", "a b", ".hidden", "-lead", "x" * 65, 7, None,
         "prod\n", "a\nb"],
    )
    def test_rejects_unsafe_names(self, name):
        with pytest.raises(ServiceError):
            validate_campaign_name(name)


class TestCampaignManager:
    def test_create_and_lookup(self, manager):
        campaign = manager.get("demo")
        assert campaign.session.epsilon == 1.0
        assert campaign.num_reports == 0
        assert "demo" in manager and len(manager) == 1
        assert [c.name for c in manager.campaigns()] == ["demo"]

    def test_case_colliding_name_rejected(self, manager):
        # 'Demo' and 'demo' would share a checkpoint file stem on
        # case-insensitive filesystems.
        with pytest.raises(ServiceError, match="case-insensitive"):
            manager.create(
                "DEMO",
                workload="Histogram",
                domain_size=8,
                epsilon=1.0,
                mechanism="Randomized Response",
            )

    def test_duplicate_name_rejected(self, manager):
        with pytest.raises(ServiceError, match="already exists"):
            manager.create(
                "demo",
                workload="Histogram",
                domain_size=8,
                epsilon=1.0,
                mechanism="Randomized Response",
            )

    def test_unknown_campaign_lists_known(self, manager):
        with pytest.raises(ServiceError, match="demo"):
            manager.get("nope")

    def test_unknown_mechanism(self):
        with pytest.raises(ServiceError, match="unknown mechanism"):
            CampaignManager().create(
                "x",
                workload="Histogram",
                domain_size=4,
                epsilon=1.0,
                mechanism="Quantum",
            )

    def test_store_mechanism_requires_store(self):
        with pytest.raises(ServiceError, match="store"):
            CampaignManager().create(
                "x",
                workload="Histogram",
                domain_size=4,
                epsilon=1.0,
                mechanism="store",
            )

    def test_create_from_store(self, tmp_path):
        from repro.optimization import OptimizerConfig, multi_restart_optimize
        from repro.store import StrategyStore
        from repro.workloads import histogram as histogram_workload

        store = StrategyStore(tmp_path)
        multi_restart_optimize(
            histogram_workload(4),
            1.0,
            OptimizerConfig(num_iterations=30, seed=0),
            restarts=1,
            store=store,
        )
        campaign = CampaignManager().create(
            "stored",
            workload="Histogram",
            domain_size=4,
            epsilon=1.0,
            mechanism="store",
            store=store,
        )
        assert campaign.source == "store"
        assert campaign.session.epsilon == 1.0

    def test_adopt_rejects_mismatched_accumulator(self):
        from repro.protocol import ShardAccumulator

        session = ProtocolSession(randomized_response(4, 1.0), histogram(4))
        with pytest.raises(ServiceError, match="does not match"):
            Campaign(
                name="bad",
                session=session,
                workload_name="Histogram",
                epsilon=1.0,
                source="test",
                accumulator=ShardAccumulator(7),
            )

    def test_describe_is_json_ready(self, manager):
        import json

        description = manager.get("demo").describe()
        assert json.loads(json.dumps(description)) == description
        assert description["workload"] == "Histogram"
        assert description["source"] == "Randomized Response"


class TestQuery:
    def test_live_query_matches_batch_finalize(self, manager):
        campaign = manager.get("demo")
        rng = np.random.default_rng(0)
        reports = rng.integers(0, campaign.session.num_outputs, size=2000)
        campaign.accumulator.add_reports(reports)
        answer = manager.query("demo", confidence=0.9)
        batch = campaign.session.finalize(campaign.accumulator)
        assert answer.num_reports == 2000
        assert np.array_equal(
            answer.intervals.estimates, batch.workload_estimates
        )
        assert answer.intervals.confidence == 0.9
        assert np.all(answer.intervals.lower <= answer.intervals.upper)

    def test_query_folds_pending_partials(self, manager):
        campaign = manager.get("demo")
        campaign.accumulator.add_reports([0, 1])
        pending = campaign.session.new_accumulator().add_reports([2, 3, 3])
        answer = manager.query("demo", pending=[pending])
        assert answer.num_reports == 5
        # the campaign's live accumulator must not be mutated by the query
        assert campaign.num_reports == 2

    def test_query_payload_round_trips_json(self, manager):
        import json

        manager.get("demo").accumulator.add_reports([0, 0, 5])
        payload = manager.query("demo").to_json()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["num_reports"] == 3
        assert len(payload["estimates"]) == 8


class TestVarianceFactorCache:
    """A session builds its variance factors on the first query only."""

    def test_not_built_by_create_or_build(self, factor_builds):
        manager = CampaignManager()
        options = dict(
            workload="Prefix",
            domain_size=16,
            epsilon=1.0,
            mechanism="Hadamard",
        )
        built = manager.build("built", **options)
        created = manager.create("created", **options)
        assert factor_builds == []
        for campaign in (built, created):
            assert "_variance_factors" not in campaign.session.__dict__

    def test_built_once_over_repeated_queries(self, manager, factor_builds):
        campaign = manager.get("demo")
        campaign.accumulator.add_reports([0, 1, 1, 5])
        first = manager.query("demo")
        for _ in range(3):
            pending = campaign.session.new_accumulator().add_reports([2, 3])
            manager.query("demo", pending=[pending])
            again = manager.query("demo")
        assert len(factor_builds) == 1
        assert factor_builds[0] is campaign.session.strategy
        assert np.array_equal(again.intervals.estimates, first.intervals.estimates)
        assert np.array_equal(
            again.intervals.standard_errors, first.intervals.standard_errors
        )

    def test_cached_arrays_are_not_writeable(self, manager):
        session = manager.get("demo").session
        manager.query("demo")
        factors = session.variance_factors()
        assert factors is session.variance_factors()
        for factor in factors:
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 1.0

    def test_cache_stays_out_of_equality_repr_and_pickle(self, manager):
        session = manager.get("demo").session
        before = repr(session)
        fresh = ProtocolSession(session.strategy, session.workload)
        session.variance_factors()
        assert session == fresh
        assert repr(session) == before
        copy = pickle.loads(pickle.dumps(session))
        assert "_variance_factors" not in copy.__dict__
        for built, rebuilt in zip(session.variance_factors(), copy.variance_factors()):
            assert np.array_equal(built, rebuilt)
