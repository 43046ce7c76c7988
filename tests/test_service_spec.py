"""Typed service records: ServiceSpec, RouteRequest/Response, wire schema."""

import numpy as np
import pytest

from repro.api.service import (
    SCHEMA_VERSION,
    RouteEntry,
    RouteRequest,
    RouteResponse,
    ServiceSpec,
)
from repro.api.presets import get_scenario
from repro.api.spec import ScenarioSpec, SpecValidationError

# The registered fig6 preset's scenario hash.  Pinned so new spec fields —
# on ScenarioSpec or any sub-spec — stay omitted from to_dict() at their
# defaults; a change here orphans every stored result.
FIG6_SCENARIO_HASH = "b859a860b24aeccf233a10a00b02915b0988989d03a5c3d364a9abfa8fd96059"
# The service spec that only names fig6: its server knobs are all omitted
# at their defaults, so deleting or adding a knob must leave it unchanged.
FIG6_SERVICE_HASH = "4d3517f51f58faf72cdb3afeb9bca57ab3d74d728dc2a085da6751a3432594ec"


class TestServiceSpec:
    def test_accepts_registered_name(self):
        spec = ServiceSpec(scenario="fig6")
        assert isinstance(spec.scenario, ScenarioSpec)
        assert spec.scenario.name == "fig6"

    def test_accepts_spec_and_mapping(self):
        scenario = get_scenario("fig6")
        assert ServiceSpec(scenario=scenario).scenario is scenario
        from_mapping = ServiceSpec(scenario=scenario.to_dict())
        assert from_mapping.scenario == scenario

    def test_round_trips_through_json(self):
        spec = ServiceSpec(
            scenario="fig6",
            host="0.0.0.0",
            port=9000,
            workers=4,
            result_store="results/",
        )
        again = ServiceSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_defaults_omitted_from_dict(self):
        # The stability rule: a spec that only names a scenario serialises
        # to just that scenario, so future server knobs can't shift hashes.
        data = ServiceSpec(scenario="fig6").to_dict()
        assert set(data) == {"scenario"}

    def test_non_defaults_emitted(self):
        data = ServiceSpec(scenario="fig6", port=9000, workers=2).to_dict()
        assert data["port"] == 9000 and data["workers"] == 2
        assert "host" not in data

    def test_resilience_knobs_round_trip_and_stay_off_default_hashes(self):
        # New knobs (PR 10) follow the same stability rule: omitted at
        # defaults, so every pre-existing spec hash is unchanged.
        plain = ServiceSpec(scenario="fig6")
        assert "max_queue_depth" not in plain.to_dict()
        assert "tick_timeout_s" not in plain.to_dict()
        knobbed = ServiceSpec(scenario="fig6", max_queue_depth=4, tick_timeout_s=1.5)
        data = knobbed.to_dict()
        assert data["max_queue_depth"] == 4 and data["tick_timeout_s"] == 1.5
        again = ServiceSpec.from_json(knobbed.to_json())
        assert again == knobbed and again.spec_hash() == knobbed.spec_hash()
        assert knobbed.scenario.spec_hash() == FIG6_SCENARIO_HASH
        assert knobbed.spec_hash() != plain.spec_hash()

    def test_fig6_scenario_hash_pinned(self):
        spec = ServiceSpec(scenario="fig6")
        assert spec.scenario.spec_hash() == FIG6_SCENARIO_HASH
        assert spec.spec_hash() == FIG6_SERVICE_HASH
        # Server knobs live outside the scenario: they never touch its hash.
        knobbed = ServiceSpec(scenario="fig6", port=9000, workers=2)
        assert knobbed.scenario.spec_hash() == FIG6_SCENARIO_HASH

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown"):
            ServiceSpec.from_dict({"scenario": "fig6", "threads": 4})

    def test_deleted_window_key_rejected_as_unknown(self):
        # Ticks take whatever is queued, so there is no coalescing window; a
        # spec that still names one fails loudly instead of being ignored.
        with pytest.raises(SpecValidationError, match="unknown.*batch_window_ms"):
            ServiceSpec.from_dict({"scenario": "fig6", "batch_window_ms": 2.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"host": ""},
            {"port": -1},
            {"port": 65536},
            {"port": True},
            {"workers": 0},
            {"result_store": ""},
            {"max_queue_depth": 0},
            {"max_queue_depth": True},
            {"tick_timeout_s": 0.0},
            {"tick_timeout_s": -2.0},
            {"tick_timeout_s": float("inf")},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(SpecValidationError):
            ServiceSpec(scenario="fig6", **kwargs)

    def test_bad_scenario_rejected(self):
        with pytest.raises(SpecValidationError, match="scenario"):
            ServiceSpec(scenario=42)


class TestRouteRequest:
    def _demand(self, n=4, seed=0):
        return np.abs(np.random.default_rng(seed).normal(size=(n, n)))

    def test_round_trips_through_wire_dict(self):
        request = RouteRequest(
            demand=self._demand(),
            history=np.zeros((2, 4, 4)),
            labels=("ecmp",),
            request_id="r1",
        )
        data = request.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert RouteRequest.from_dict(data) == request

    def test_defaults_omitted_from_wire_dict(self):
        data = RouteRequest(demand=self._demand()).to_dict()
        assert set(data) == {"schema_version", "demand"}

    def test_demand_becomes_readonly_float64(self):
        request = RouteRequest(demand=[[0, 1], [2, 0]])
        assert request.demand.dtype == np.float64
        with pytest.raises(ValueError):
            request.demand[0, 0] = 5.0

    @pytest.mark.parametrize(
        "demand",
        [np.ones((2, 3)), np.full((3, 3), np.nan), -np.ones((3, 3)), np.ones(3)],
    )
    def test_bad_demand_rejected(self, demand):
        with pytest.raises(SpecValidationError, match="demand"):
            RouteRequest(demand=demand)

    def test_history_shape_checked_against_demand(self):
        with pytest.raises(SpecValidationError, match="history"):
            RouteRequest(demand=self._demand(4), history=np.zeros((2, 3, 3)))

    def test_labels_must_be_nonempty_strings(self):
        with pytest.raises(SpecValidationError, match="labels"):
            RouteRequest(demand=self._demand(), labels=("ok", ""))

    def test_newer_schema_rejected(self):
        data = RouteRequest(demand=self._demand()).to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SpecValidationError, match="wire schema"):
            RouteRequest.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = RouteRequest(demand=self._demand()).to_dict()
        data["priority"] = "high"
        with pytest.raises(SpecValidationError, match="unknown"):
            RouteRequest.from_dict(data)


class TestRouteResponse:
    def _response(self):
        return RouteResponse(
            entries=(
                RouteEntry("ecmp", 1.25, 0.5, 0.4),
                RouteEntry("shortest_path", 1.5, 0.6, 0.4),
            ),
            request_id="r1",
            batched=3,
            elapsed_ms=2.5,
        )

    def test_round_trips_through_wire_dict(self):
        response = self._response()
        again = RouteResponse.from_dict(response.to_dict())
        assert again == response

    def test_entry_lookup_and_ratios(self):
        response = self._response()
        assert response.entry("ecmp").ratio == 1.25
        assert response.ratios == {"ecmp": 1.25, "shortest_path": 1.5}
        with pytest.raises(KeyError):
            response.entry("mlp")

    def test_entry_dicts_coerced(self):
        response = RouteResponse(
            entries=[{"label": "ecmp", "ratio": 1.0, "achieved": 0.2, "optimal": 0.2}]
        )
        assert isinstance(response.entries[0], RouteEntry)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SpecValidationError, match="unique"):
            RouteResponse(
                entries=(
                    RouteEntry("ecmp", 1.0, 0.1, 0.1),
                    RouteEntry("ecmp", 2.0, 0.2, 0.1),
                )
            )

    def test_bad_batched_rejected(self):
        with pytest.raises(SpecValidationError, match="batched"):
            RouteResponse(entries=(), batched=0)

    def test_newer_schema_rejected(self):
        data = self._response().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SpecValidationError, match="wire schema"):
            RouteResponse.from_dict(data)
