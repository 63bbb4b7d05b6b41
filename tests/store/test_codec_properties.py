"""Property tests for the store codec and the cache-entry read path.

Generated solo, co-run and N-way scenario results — arbitrary finite
float64 values (subnormals and ``-0.0`` included), arbitrary region
order and timeline length — must survive encode → ``json.dumps`` →
read → decode → encode byte for byte, through the codec alone and
through a :class:`ResultStore` entry on disk.  An entry with any schema
field dropped must read back as a miss, never raise.
"""

import json
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.results import (
    AppMetrics,
    BandwidthSample,
    CoRunResult,
    RegionMetrics,
    ScenarioRunResult,
    SoloRunResult,
)
from repro.session.scenario import AppPlacement, Scenario
from repro.store import ResultStore
from repro.store.codec import (
    _REGION_FIELDS,
    decode_corun,
    decode_scenario_result,
    decode_solo,
    encode_corun,
    encode_scenario_result,
    encode_solo,
)

ENGINE_FP = "feedbeef0123"
SCENARIO = Scenario(
    (AppPlacement("G-CC", 2), AppPlacement("nab", 4), AppPlacement("swaptions", 2))
)

# Every finite float64: subnormals and both zeros included.
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
names = st.text(max_size=6)


@st.composite
def regions(draw):
    return RegionMetrics(*(draw(finite) for _ in _REGION_FIELDS))


@st.composite
def app_metrics(draw):
    # A list of unique names, so the generated region order varies.
    by_region = draw(
        st.lists(st.tuples(names, regions()), max_size=4, unique_by=lambda t: t[0])
    )
    return AppMetrics(
        draw(names), draw(st.integers(1, 64)), draw(finite), dict(by_region)
    )


timelines = st.lists(
    st.builds(
        BandwidthSample, finite, st.dictionaries(names, finite, max_size=4)
    ),
    max_size=6,
)


@st.composite
def solo_results(draw):
    return SoloRunResult(draw(app_metrics()), draw(timelines))


@st.composite
def corun_results(draw):
    return CoRunResult(
        draw(app_metrics()), draw(app_metrics()), draw(finite), draw(finite), draw(timelines)
    )


@st.composite
def scenario_results(draw):
    apps = draw(st.lists(app_metrics(), min_size=1, max_size=4))
    rates = draw(st.lists(finite, min_size=len(apps) - 1, max_size=len(apps) - 1))
    return ScenarioRunResult(apps, draw(finite), rates, draw(timelines))


# kind -> (strategy, encode, decode, put(store, result), get(store), entry path)
KINDS = {
    "solo": (
        solo_results(),
        encode_solo,
        decode_solo,
        lambda s, r: s.put_solo(ENGINE_FP, "G-CC", 4, r),
        lambda s: s.get_solo(ENGINE_FP, "G-CC", 4),
        lambda s: s._solo_path(ENGINE_FP, "G-CC", 4),
    ),
    "corun": (
        corun_results(),
        encode_corun,
        decode_corun,
        lambda s, r: s.put_corun(ENGINE_FP, "G-CC", "nab", 4, 2, r),
        lambda s: s.get_corun(ENGINE_FP, "G-CC", "nab", 4, 2),
        lambda s: s._corun_path(ENGINE_FP, "G-CC", "nab", 4, 2),
    ),
    "scenario": (
        scenario_results(),
        encode_scenario_result,
        decode_scenario_result,
        lambda s, r: s.put_scenario(ENGINE_FP, SCENARIO, r),
        lambda s: s.get_scenario(ENGINE_FP, SCENARIO),
        lambda s: s._scenario_path(ENGINE_FP, SCENARIO),
    ),
}

kinds_and_results = st.sampled_from(sorted(KINDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), KINDS[kind][0])
)

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def test_region_fields_follow_the_constructor_order():
    # The decoder builds RegionMetrics positionally from _REGION_FIELDS.
    assert _REGION_FIELDS == tuple(f.name for f in fields(RegionMetrics))


@PROPERTY
@given(kinds_and_results)
def test_codec_round_trip_is_byte_identical(case):
    kind, result = case
    _, encode, decode, *_ = KINDS[kind]
    text = json.dumps(encode(result))
    for raw in (text, text.encode()):
        again = decode(json.loads(raw))
        assert json.dumps(encode(again)) == text
        assert again == result


@PROPERTY
@given(kinds_and_results)
def test_store_entry_round_trip_is_byte_identical(case):
    kind, result = case
    _, encode, _, put, get, path_of = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        put(store, result)
        path = Path(path_of(store))
        written = path.read_bytes()
        again = get(store)
        assert again is not None
        assert json.dumps(encode(again)) == json.dumps(encode(result))
        # Publishing the decoded value rewrites the very same bytes.
        put(store, again)
        assert path.read_bytes() == written


_DATA_KEYED = ("by_region", "bytes_per_s")


def schema_fields(node, path=(), is_map=False):
    """Paths of every schema field of an encoded entry.  The keys of the
    region and per-app bandwidth maps are data (region and app names),
    not fields: their values' own fields are still walked."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not is_map:
                yield path + (key,)
            yield from schema_fields(
                value, path + (key,), not is_map and key in _DATA_KEYED
            )
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from schema_fields(value, path + (i,))


@PROPERTY
@given(kinds_and_results)
def test_entry_with_any_field_dropped_is_a_miss(case):
    kind, result = case
    _, _, _, put, get, path_of = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        put(store, result)
        path = Path(path_of(store))
        text = path.read_text()
        for *parents, field in schema_fields(json.loads(text)):
            entry = json.loads(text)
            node = entry
            for step in parents:
                node = node[step]
            del node[field]
            path.write_text(json.dumps(entry))
            assert get(store) is None, (*parents, field)
