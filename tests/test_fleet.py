"""Fleet engine: spec algebra, population expansion, cross-shard merge."""

from __future__ import annotations

import json

import pytest

from repro.core.spec import ScenarioSpec
from repro.experiments.fleet import (
    DEFAULT_GROUPS,
    ClientGroup,
    FleetSpec,
    expand_population,
    fleet_session_id,
    format_fleet_report,
    group_assignment,
    run_fleet,
    shard_clients,
)
from repro.experiments.runner import run_trials
from repro.obs.metrics import scoped_registry


def _tiny_groups(tiny_prepared):
    return tuple(
        ClientGroup(
            abr=abr,
            video=tiny_prepared.name,
            partially_reliable=pr,
            buffer_segments=2,
        )
        for abr, pr in (
            ("abr_star", True), ("bola", True),
            ("abr_star", False), ("bola", False),
        )
    )


def _tiny_spec(tiny_prepared, clients=12, shards=3, **over):
    over.setdefault("trace", "constant:40")
    return FleetSpec(
        clients=clients,
        shards=shards,
        groups=_tiny_groups(tiny_prepared),
        **over,
    )


# ---------------------------------------------------------------------------
# FleetSpec: frozen, round-trippable, content-hashed.
# ---------------------------------------------------------------------------
class TestFleetSpec:
    def test_roundtrip_preserves_spec_and_hash(self):
        spec = FleetSpec(clients=100, shards=4, trace="att", seed=7)
        again = FleetSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown FleetSpec field"):
            FleetSpec.from_dict({"clients": 10, "shardz": 2})
        with pytest.raises(ValueError, match="unknown ClientGroup field"):
            ClientGroup.from_dict({"abr": "bola", "colour": "red"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FleetSpec.from_dict([1, 2, 3])

    @pytest.mark.parametrize("kwargs", [
        {"clients": 0},
        {"shards": 0},
        {"clients": 4, "shards": 8},          # more shards than clients
        {"groups": ()},
        {"sample_rate": 1.5},
        {"retry_budget": -1},                 # checked by ScenarioSpec
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FleetSpec(**kwargs)

    def test_group_validation(self):
        with pytest.raises(ValueError, match="weight"):
            ClientGroup(weight=0.0)
        # A group's client fields are checked by the spec it becomes.
        with pytest.raises(ValueError, match="buffer_segments"):
            FleetSpec(groups=(ClientGroup(buffer_segments=0),))

    def test_hash_neutral_defaults(self):
        # Fields at their defaults are omitted from the canonical JSON,
        # so hashes stay stable as resilience knobs are added.
        base = FleetSpec()
        explicit = FleetSpec(retry_budget=3, retry_backoff_s=0.5)
        assert base.spec_hash() == explicit.spec_hash()
        assert "retry_budget" not in base.to_dict()
        assert FleetSpec(retry_budget=5).spec_hash() != base.spec_hash()

    def test_with_override(self):
        spec = FleetSpec()
        bigger = spec.with_(clients=2000)
        assert bigger.clients == 2000
        assert bigger.shards == spec.shards
        assert bigger.spec_hash() != spec.spec_hash()

    def test_hashable(self):
        assert len({FleetSpec(), FleetSpec(), FleetSpec(seed=1)}) == 2

    def test_groups_list_coerced_to_tuple(self):
        spec = FleetSpec(groups=list(DEFAULT_GROUPS))
        assert isinstance(spec.groups, tuple)
        assert hash(spec) == hash(FleetSpec())


# ---------------------------------------------------------------------------
# Deterministic population expansion and shard assignment.
# ---------------------------------------------------------------------------
class TestPopulation:
    def test_assignment_is_pure_function_of_spec(self):
        spec = FleetSpec(clients=200, shards=8)
        assert group_assignment(spec) == group_assignment(spec)
        assert len(group_assignment(spec)) == spec.clients

    def test_seed_changes_assignment(self):
        a = group_assignment(FleetSpec(clients=500, shards=4, seed=0))
        b = group_assignment(FleetSpec(clients=500, shards=4, seed=1))
        assert a != b

    def test_weights_shape_the_mix(self):
        groups = (
            ClientGroup(abr="bola", weight=3.0),
            ClientGroup(abr="abr_star", weight=1.0),
        )
        spec = FleetSpec(clients=2000, shards=8, groups=groups)
        assignment = group_assignment(spec)
        share = assignment.count(0) / spec.clients
        # 3:1 weighting: the heavy group lands near 75% of the fleet.
        assert 0.70 < share < 0.80

    def test_single_group_is_homogeneous(self):
        spec = FleetSpec(clients=50, shards=2, groups=(ClientGroup(),))
        assert set(group_assignment(spec)) == {0}
        population = expand_population(spec)
        assert all(isinstance(c, ScenarioSpec) for c in population)
        assert all(c.abr == "bola" for c in population)

    def test_shards_partition_the_fleet(self):
        spec = FleetSpec(clients=103, shards=8)  # deliberately uneven
        seen = []
        for shard in range(spec.shards):
            members = shard_clients(spec, shard)
            assert members  # every shard holds at least one client
            seen.extend(members)
        assert sorted(seen) == list(range(spec.clients))

    def test_shard_index_validated(self):
        spec = FleetSpec(clients=16, shards=4)
        with pytest.raises(ValueError, match="out of range"):
            shard_clients(spec, 4)

    def test_session_ids_globally_unique(self):
        spec = FleetSpec(clients=64, shards=8)
        assignment = group_assignment(spec)
        ids = [
            fleet_session_id(spec, i, spec.groups[assignment[i]])
            for i in range(spec.clients)
        ]
        assert len(set(ids)) == spec.clients


# ---------------------------------------------------------------------------
# The merge: byte-identical reports at any worker count.
# ---------------------------------------------------------------------------
# Pinned golden: 12 tiny-video clients over 3 shards on constant:40.
# Computed once from the canonical report JSON; any change to the
# kernel, transport, merge order, or report schema shows up here.
GOLDEN_TINY_FLEET_HASH = "2c4fd532f1416772"


class TestFleetMerge:
    def test_workers_1_vs_2_byte_identical(self, tiny_prepared):
        spec = _tiny_spec(tiny_prepared)
        prepared = {tiny_prepared.name: tiny_prepared}
        serial = run_fleet(spec, workers=1, prepared_map=prepared)
        parallel = run_fleet(spec, workers=2, prepared_map=prepared)
        assert json.dumps(serial.report(), sort_keys=True) == \
            json.dumps(parallel.report(), sort_keys=True)
        assert serial.fleet_hash() == parallel.fleet_hash()

    def test_golden_fleet_hash(self, tiny_prepared):
        spec = _tiny_spec(tiny_prepared)
        result = run_fleet(
            spec, prepared_map={tiny_prepared.name: tiny_prepared}
        )
        assert result.fleet_hash() == GOLDEN_TINY_FLEET_HASH

    def test_report_shape(self, tiny_prepared):
        spec = _tiny_spec(tiny_prepared)
        result = run_fleet(
            spec, prepared_map={tiny_prepared.name: tiny_prepared}
        )
        report = result.report()
        assert report["clients"] == spec.clients
        assert len(report["shards"]) == spec.shards
        assert sum(row["clients"] for row in report["shards"]) == \
            spec.clients
        assert 0.0 < report["jain"]["fleet"] <= 1.0
        assert len(report["jain"]["per_shard"]) == spec.shards
        assert report["rollup"]["sessions_seen"] == spec.clients
        assert report["attribution"]["ok"] is True
        assert len(result.attribution.results()) == spec.clients
        # Every populated group appears with a client count.
        assert sum(g["clients"] for g in report["groups"].values()) == \
            spec.clients
        # Per-shard trace weather: each cell seeds its own trace.
        seeds = [row["trace_seed"] for row in report["shards"]]
        assert seeds == [spec.seed + s for s in range(spec.shards)]

    def test_rows_off_by_default_and_kept_on_request(self, tiny_prepared):
        spec = _tiny_spec(tiny_prepared, clients=6, shards=2)
        prepared = {tiny_prepared.name: tiny_prepared}
        lean = run_fleet(spec, prepared_map=prepared)
        assert lean.rows is None
        full = run_fleet(spec, prepared_map=prepared, keep_rows=True)
        assert full.rows is not None and len(full.rows) == spec.clients
        # Rows don't perturb the merged artifacts.
        assert full.fleet_hash() == lean.fleet_hash()

    def test_shard_metrics_fold_identically(self, tiny_prepared):
        # Every shard's registry folds into the caller's, in shard
        # order, at any worker count.
        spec = _tiny_spec(tiny_prepared, clients=6, shards=2)
        prepared = {tiny_prepared.name: tiny_prepared}
        dumps = []
        for workers in (1, 2):
            with scoped_registry() as registry:
                run_fleet(spec, workers=workers, prepared_map=prepared)
            dumps.append(registry.dump())
        assert dumps[0] == dumps[1]
        segments = sum(
            value for series, value in dumps[0]["counters"].items()
            if series.startswith("session.segments{")
        )
        assert segments == spec.clients * tiny_prepared.video.num_segments

    def test_format_fleet_report(self, tiny_prepared):
        spec = _tiny_spec(tiny_prepared, clients=6, shards=2)
        result = run_fleet(
            spec, prepared_map={tiny_prepared.name: tiny_prepared}
        )
        text = format_fleet_report(result)
        assert spec.spec_hash() in text
        assert result.fleet_hash() in text
        assert "Jain" in text


# ---------------------------------------------------------------------------
# run_trials observers: in-process state, so serial only.
# ---------------------------------------------------------------------------
class TestObserverFold:
    def _config(self, tiny_prepared):
        return ScenarioSpec(
            video=tiny_prepared.name,
            abr="bola",
            trace="constant:12",
            buffer_segments=2,
            repetitions=3,
        )

    def test_non_mergeable_observer_still_requires_serial(
        self, tiny_prepared
    ):
        config = self._config(tiny_prepared)
        events = []
        with pytest.raises(ValueError, match="require workers=1"):
            run_trials(
                config,
                prepared=tiny_prepared,
                workers=2,
                observers=[events.append],
            )
        # The same observer is fine serially.
        run_trials(
            config, prepared=tiny_prepared, workers=1,
            observers=[events.append],
        )
        assert events
