"""Record files across format versions.

Records are written as one line of compact JSON (``RunRecord.to_json``).
Stores written before that hold ``indent=1`` records; ``data/indent1-store``
is such a store, exactly as the older format wrote it (a ``table1`` and a
``solo`` record of one swaptions session).  Run ids hash the encoded
payload, never the record bytes, so they are the same in both formats.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core import ExperimentConfig
from repro.session import Session
from repro.session.record import RunRecord
from repro.session.registry import get_runner
from repro.store import ResultStore

INDENT1_STORE = Path(__file__).parent / "data" / "indent1-store"
#: The run ids the indented store holds, as the older format computed them.
PINNED = {"table1": "table1-f609743a7027", "solo": "solo-a287c54bbb0f"}


def make_session(store=None) -> Session:
    config = ExperimentConfig(workloads=("swaptions",), jitter=0.0, seed=7)
    return Session(config, store=store)


def encoded(record: RunRecord):
    return get_runner(record.artifact).encode(record.result)


@pytest.fixture
def indent1_store(tmp_path) -> ResultStore:
    root = tmp_path / "store"
    shutil.copytree(INDENT1_STORE, root)
    return ResultStore(root)


@pytest.mark.parametrize("artifact", sorted(PINNED))
def test_run_ids_are_pinned(tmp_path, artifact):
    record = make_session().run(artifact)
    assert ResultStore(tmp_path / "store").run_id_for(record) == PINNED[artifact]


@pytest.mark.parametrize("artifact", sorted(PINNED))
def test_indent1_record_loads_through_latest_and_load(indent1_store, artifact):
    path = indent1_store.root / "results" / artifact / f"{PINNED[artifact]}.json"
    assert path.read_text().startswith('{\n "artifact"')  # really indented
    fresh = make_session().run(artifact)
    for loaded in (indent1_store.latest(artifact), indent1_store.load(PINNED[artifact])):
        assert loaded.artifact == artifact
        assert encoded(loaded) == encoded(fresh)
        assert indent1_store.run_id_for(loaded) == PINNED[artifact]


def test_records_are_written_as_one_compact_line(tmp_path):
    store = ResultStore(tmp_path / "store")
    record = make_session(store).run("solo")
    entry = store.query(artifact="solo")[-1]
    assert entry.run_id == PINNED["solo"]
    text = (store.root / entry.path).read_text(encoding="utf-8")
    assert text == record.to_json()
    assert "\n" not in text
    assert json.loads(text)["payload"] == encoded(record)
    assert encoded(store.load(entry)) == encoded(record)
