"""Wire codecs: lossless round trips and strict decode errors."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (REQUEST_KINDS, AnytimeSolveRequest,
                                  BrknnRequest, BrknnResponse,
                                  ErrorResponse, HeatmapRequest,
                                  HeatmapResponse, ImpactRequest,
                                  ImpactResponse, RegionSummary,
                                  SiteInfluenceRequest,
                                  SiteInfluenceResponse, SolveRequest,
                                  SolveResponse, decode_request,
                                  decode_response, encode_request,
                                  encode_response, request_key)
from tests.serve.conftest import JSON, NUMBER

# Awkward floats on purpose: shortest-repr JSON round trips must keep
# every one of them bit-identical.
UGLY = (0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, 5e-324)

REQUESTS = [
    BrknnRequest(instance="i1", site=3),
    SiteInfluenceRequest(instance="i1"),
    ImpactRequest(instance="i1", x=UGLY[0], y=UGLY[1]),
    SolveRequest(instance="i1", top_t=4),
    AnytimeSolveRequest(instance="i1", epsilon=0.25),
    HeatmapRequest(instance="i1", nx=16, ny=9),
]

RESPONSES = [
    BrknnResponse(site=3, members={0: 1, 7: 2}, influence=UGLY[0]),
    SiteInfluenceResponse(influence=UGLY),
    ImpactResponse(x=UGLY[0], y=UGLY[1], gain=UGLY[2],
                   customer_ranks={5: 1}, incumbent_losses={2: UGLY[3]}),
    SolveResponse(score=UGLY[1], upper_bound=UGLY[2], regions=(
        RegionSummary(score=UGLY[1], area=UGLY[3], x=0.5, y=0.25,
                      cover=(4, 9, 11)),)),
    HeatmapResponse(nx=2, ny=1, bounds=(0.0, 0.0, UGLY[2], UGLY[0]),
                    lower=(0.0, UGLY[3]), upper=(UGLY[1], UGLY[3])),
    ErrorResponse(message="boom"),
]


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_", REQUESTS,
                             ids=[r.kind for r in REQUESTS])
    def test_json_round_trip_is_identity(self, request_):
        doc = json.loads(json.dumps(encode_request(request_)))
        assert decode_request(doc) == request_

    def test_every_kind_has_a_round_trip_case(self):
        assert {r.kind for r in REQUESTS} == set(REQUEST_KINDS)

    def test_solve_top_t_defaults_to_one(self):
        assert decode_request({"kind": "solve", "instance": "i"}) \
            == SolveRequest(instance="i", top_t=1)


class TestResponseRoundTrip:
    @pytest.mark.parametrize("response", RESPONSES,
                             ids=[r.kind for r in RESPONSES])
    def test_json_round_trip_is_identity(self, response):
        doc = json.loads(json.dumps(encode_response(response)))
        assert decode_response(doc) == response

    def test_int_keys_survive_json_stringification(self):
        doc = json.loads(json.dumps(encode_response(RESPONSES[0])))
        assert all(isinstance(key, str) for key in doc["members"])
        decoded = decode_response(doc)
        assert decoded.members == {0: 1, 7: 2}


class TestDecodeErrors:
    def test_unknown_request_kind(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            decode_request({"kind": "frobnicate", "instance": "i"})

    def test_missing_instance(self):
        with pytest.raises(ValueError, match="non-empty 'instance'"):
            decode_request({"kind": "brknn", "site": 1})

    def test_missing_field_names_the_field(self):
        with pytest.raises(ValueError, match="'site'"):
            decode_request({"kind": "brknn", "instance": "i"})
        with pytest.raises(ValueError, match="'epsilon'"):
            decode_request({"kind": "solve_anytime", "instance": "i"})

    def test_bad_field_type(self):
        with pytest.raises(ValueError, match="bad impact request"):
            decode_request({"kind": "impact", "instance": "i",
                            "x": "north", "y": 0.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("kind, field", [("impact", "x"),
                                             ("impact", "y"),
                                             ("solve_anytime", "epsilon")])
    def test_non_finite_floats_rejected(self, kind, field, value):
        """JSON's ``NaN``/``Infinity`` parse to floats no place or
        tolerance can take: the decoder refuses them by name."""
        doc = {"kind": kind, "instance": "i", "x": 0.5, "y": 0.5,
               "epsilon": 0.25, field: value}
        with pytest.raises(ValueError, match=f"'{field}' must be finite"):
            decode_request(doc)
        with pytest.raises(ValueError, match="must be finite"):
            decode_request(json.loads(json.dumps(doc)))

    def test_unknown_response_kind(self):
        with pytest.raises(ValueError, match="unknown response kind"):
            decode_response({"kind": "frobnicate"})

    def test_encode_rejects_non_protocol_objects(self):
        with pytest.raises(TypeError):
            encode_request(object())
        with pytest.raises(TypeError):
            encode_response(object())


#: Every field any request kind reads.
FIELDS = ("site", "x", "y", "top_t", "epsilon", "nx", "ny")


def _decodes_or_value_error(doc) -> None:
    """Decode ``doc``: only ``ValueError`` (the daemon's 400) may
    escape, and whatever decodes has a canonical key, as the service
    keys every request it executes."""
    try:
        request = decode_request(doc)
    except ValueError:
        return
    request_key(request)


class TestDecodeFuzz:
    @settings(max_examples=300, deadline=None)
    @given(doc=JSON)
    def test_any_json_value(self, doc):
        _decodes_or_value_error(doc)

    @settings(max_examples=300, deadline=None)
    @given(doc=st.fixed_dictionaries(
        {"kind": st.sampled_from(REQUEST_KINDS),
         "instance": st.text(min_size=1, max_size=4) | JSON},
        optional={name: NUMBER | JSON for name in FIELDS}))
    def test_every_kind_with_any_field_values(self, doc):
        _decodes_or_value_error(doc)
