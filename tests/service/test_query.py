"""Query normalization and validation tests."""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.engine.batch import CellSpec
from repro.errors import ConfigurationError, StaticCheckError
from repro.service.query import MAX_SWEEP_CELLS, SimQuery, expand_sweep

BASE = {"suite": "pdp11", "trace": "ED", "net": 1024, "block": 16, "sub": 8}


class TestFromPayload:
    def test_defaults_applied(self):
        query = SimQuery.from_payload(dict(BASE), default_length=5000)
        assert query.length == 5000
        assert query.spec.geometry.associativity == 4
        assert query.spec.engine == "auto"
        assert query.spec.fetch == "demand"
        assert query.spec.replacement == "lru"
        assert query.spec.warmup == "fill"
        assert query.spec.word_size == 2  # the PDP-11's word size
        assert query.filter_writes is True

    def test_nested_and_flat_geometry_are_equivalent(self):
        flat = SimQuery.from_payload(dict(BASE), 5000)
        nested = SimQuery.from_payload(
            {
                "suite": "pdp11",
                "trace": "ED",
                "geometry": {"net": 1024, "block": 16, "sub": 8},
            },
            5000,
        )
        assert flat == nested
        assert hash(flat) == hash(nested)

    def test_fetch_name_is_normalized(self):
        query = SimQuery.from_payload(
            dict(BASE, fetch="LOAD_FORWARD"), 5000
        )
        assert query.spec.fetch == "load-forward"

    @pytest.mark.parametrize(
        "bad",
        [
            {"suite": "nope"},
            {"trace": "NOPE"},
            {"engine": "turbo"},
            {"fetch": "psychic"},
            {"replacement": "crystal"},
            {"warmup": "sometimes"},
            {"warmup": -3},
            {"net": "big"},
            {"net": 0},
            {"sub": 32},  # sub-block larger than block
            {"mystery_knob": 1},
        ],
    )
    def test_invalid_payloads_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            SimQuery.from_payload(dict(BASE, **bad), 5000)

    def test_null_warmup_names_its_rule_at_parse(self):
        # An explicit null is not "absent": it must fail here, with the
        # rule id, not after admission when the engine rejects it.
        with pytest.raises(StaticCheckError) as excinfo:
            SimQuery.from_payload(dict(BASE, warmup=None), 5000)
        assert [d.rule for d in excinfo.value.diagnostics] == ["sweep-bad-warmup"]

    @pytest.mark.parametrize(
        "bad, rules",
        [
            ({"replacement": None}, {"policy-unknown-replacement"}),
            ({"engine": "foo"}, {"policy-unknown-engine"}),
            ({"engine": None}, {"policy-unknown-engine"}),
            ({"word_size": 0}, {"sweep-bad-word-size"}),
            ({"word_size": 2.5}, {"sweep-bad-word-size"}),
            ({"word_size": True}, {"sweep-bad-word-size"}),
            (
                {"engine": "foo", "miss_path": {"victim_entires": 4}},
                {"policy-unknown-engine", "misspath-unknown-key"},
            ),
            ({"sample": {"window": 0}}, {"sample-interval-invalid"}),
        ],
    )
    def test_malformed_axes_name_their_rules_at_parse(self, bad, rules):
        # One 400 names every bad axis, each under the rule id the
        # sweep runner and the CLI use, and under the source and text
        # ``CellSpec.of`` gives it whether or not the shape is bad too.
        def refusal(payload):
            with pytest.raises(StaticCheckError) as excinfo:
                SimQuery.from_payload(payload, 5000)
            return str(excinfo.value).split(":")[0], {
                (d.rule, d.source) for d in excinfo.value.diagnostics
                if d.source != "query"
            }

        alone = refusal(dict(BASE, **bad))
        assert alone[0] == "invalid cell"
        assert {rule for rule, _ in alone[1]} == rules
        assert refusal(dict(BASE, net=3000, **bad)) == alone

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            SimQuery.from_payload({"suite": "pdp11", "trace": "ED"}, 5000)

    def test_cell_key_matches_runner_format(self):
        query = SimQuery.from_payload(dict(BASE), 5000)
        assert query.cell() == "1024:16,8@4/ED"

    def test_to_dict_round_trips_through_from_payload(self):
        query = SimQuery.from_payload(dict(BASE, assoc=2, engine="reference"), 5000)
        assert SimQuery.from_payload(query.to_dict(), 5000) == query


    def test_payload_keys_and_echo_follow_cellspec(self):
        axes = {f.name for f in fields(CellSpec)} - {"geometry"}
        trace_keys = {"suite", "trace", "length", "filter_writes"}
        accepted = trace_keys | {"net", "block", "sub", "assoc"} | axes | {"exact"}
        # The unknown-key check runs before any value is read: every
        # accepted key passes it and only the stray one is named.
        probe = dict.fromkeys(accepted | {"bogus"})
        with pytest.raises(ConfigurationError) as excinfo:
            SimQuery.from_payload(probe, 5000)
        assert str(excinfo.value) == "unknown query keys: ['bogus']"
        echo = SimQuery.from_payload(dict(BASE), 5000).to_dict()
        assert set(echo) == trace_keys | {"geometry"} | axes
        # The response bytes pin the echo's key order.
        assert list(echo) == [
            "suite", "trace", "length", "geometry", "engine", "fetch",
            "replacement", "warmup", "word_size", "filter_writes",
            "miss_path", "sample",
        ]


class TestExpandSweep:
    def test_cross_product(self):
        queries = expand_sweep(
            {"base": dict(BASE), "grid": {"net": [256, 512], "sub": [4, 8]}},
            default_length=5000,
        )
        assert len(queries) == 4
        assert {
            (q.spec.geometry.net_size, q.spec.geometry.sub_block_size)
            for q in queries
        } == {
            (256, 4), (256, 8), (512, 4), (512, 8)
        }

    def test_grid_axes_override_base(self):
        (query,) = expand_sweep(
            {"base": dict(BASE), "grid": {"net": [256]}}, 5000
        )
        assert query.spec.geometry.net_size == 256

    def test_oversized_grid_rejected(self):
        grid = {"net": [2 ** i for i in range(8, 8 + MAX_SWEEP_CELLS // 8)],
                "assoc": [1, 2, 4, 8, 16, 1, 2, 4, 8]}
        with pytest.raises(ConfigurationError, match="exceeding"):
            expand_sweep({"base": dict(BASE), "grid": grid}, 5000)

    def test_one_invalid_cell_fails_whole_request(self):
        with pytest.raises(ConfigurationError):
            expand_sweep(
                {"base": dict(BASE), "grid": {"sub": [8, 32]}}, 5000
            )

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="grid axes"):
            expand_sweep(
                {"base": dict(BASE), "grid": {"warp": [1]}}, 5000
            )


#: Exact echo and fingerprint(1234) of each payload, captured before
#: ``SimQuery`` was folded onto ``CellSpec``: the HTTP ``query`` echo
#: and the content addresses of stored results must not move.
_ECHO_DEFAULTS = {
    "engine": "auto", "fetch": "demand", "filter_writes": True,
    "geometry": {"assoc": 4, "block": 16, "net": 1024, "sub": 8},
    "length": 5000, "miss_path": None, "replacement": "lru",
    "sample": None, "suite": "pdp11", "trace": "ED", "warmup": "fill",
    "word_size": 2,
}
_CHAIN = {"victim_entries": 4, "stream_buffers": 2, "stream_depth": 4}
PINNED = {
    "flat": (dict(BASE), {}, "eba60a7a"),
    "nested": (
        {"suite": "pdp11", "trace": "ED",
         "geometry": {"net": 1024, "block": 16, "sub": 8, "assoc": 2}},
        {"geometry": {"assoc": 2, "block": 16, "net": 1024, "sub": 8}},
        "570bad52",
    ),
    "chain": (
        dict(BASE, miss_path=_CHAIN),
        {"miss_path": {
            "l2_associativity": 4, "l2_block_size": 0, "l2_net_size": 0,
            "l2_sub_block_size": 0, "miss_entries": 0, "stream_buffers": 2,
            "stream_depth": 4, "victim_entries": 4,
        }},
        "a869cf58",
    ),
    "empty-chain": (dict(BASE, miss_path={}), {}, "eba60a7a"),
    "sample": (
        dict(BASE, sample={"interval": 500, "k": 2}),
        {"sample": {"interval": 500, "k": 2, "seed": 0}},
        "600e7203",
    ),
    "load-forward": (
        dict(BASE, fetch="load_forward"), {"fetch": "load-forward"}, "92e02f7f"
    ),
    "engine": (dict(BASE, engine="reference"), {"engine": "reference"}, "65dd31c4"),
    "word-size": (dict(BASE, word_size=4), {"word_size": 4}, "7ac7dae3"),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_echo_and_fingerprint_are_pinned(case):
    payload, echo_changes, fingerprint = PINNED[case]
    query = SimQuery.from_payload(payload, 5000)
    expected = json.dumps(dict(_ECHO_DEFAULTS, **echo_changes), sort_keys=True)
    assert json.dumps(query.to_dict(), sort_keys=True) == expected
    assert query.fingerprint(1234) == fingerprint
