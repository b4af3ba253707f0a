"""The artifact store under concurrent multi-process writers (S3).

The store's durability story rests on ``put()`` being an atomic
mkstemp + ``os.replace`` and on ``get()`` treating *every* failure as a
cache miss with quarantine of invalid entries.  These tests drive two
separate Python processes racing ``put()`` on the same key while a
reader polls, and assert the contract:

* a reader never crashes and never observes a torn/mixed payload — every
  ``get()`` is either ``None`` or exactly one writer's payload;
* after the race the surviving envelope is valid (correct schema, key
  and checksum) and is *not* quarantined by the next read.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.store.artifact_store import ArtifactStore

KEY = "c" * 64
NAMESPACE = "metadata"
ROUNDS = 150

WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.store.artifact_store import ArtifactStore

store = ArtifactStore({root!r})
wrote = 0
for n in range({rounds}):
    if store.put({namespace!r}, {key!r}, {{"writer": {writer}, "n": n}}):
        wrote += 1
print(wrote)
"""


def _spawn_writer(root, writer_id):
    src = Path(__file__).resolve().parent.parent / "src"
    code = WRITER.format(
        src=str(src),
        root=str(root),
        rounds=ROUNDS,
        namespace=NAMESPACE,
        key=KEY,
        writer=writer_id,
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PATH": "/usr/bin:/bin"},
    )


def test_two_writers_racing_one_key_never_corrupt(tmp_path):
    root = tmp_path / "store"
    writers = [_spawn_writer(root, 0), _spawn_writer(root, 1)]
    reader = ArtifactStore(root)

    observed = []
    while any(proc.poll() is None for proc in writers):
        value = reader.get(NAMESPACE, KEY)  # must never raise
        if value is not None:
            observed.append(value)

    for writer_id, proc in enumerate(writers):
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, (writer_id, err)
        assert int(out.strip()) == ROUNDS, (
            f"writer {writer_id} had failed puts: {out!r} {err!r}"
        )

    # every observation was one writer's intact payload — no tearing
    for value in observed:
        assert set(value) == {"writer", "n"}
        assert value["writer"] in (0, 1)
        assert 0 <= value["n"] < ROUNDS

    # the survivor is a valid envelope and the next read is a hit,
    # not a quarantine
    final = reader.get(NAMESPACE, KEY)
    assert final is not None and final["n"] == ROUNDS - 1
    path = reader.path_for(NAMESPACE, KEY)
    assert path.is_file()
    envelope = json.loads(path.read_text())
    assert envelope["schema"] == "repro.store/1"
    assert envelope["namespace"] == NAMESPACE and envelope["key"] == KEY
    again = reader.get(NAMESPACE, KEY)
    assert again == final
    assert path.is_file(), "valid entry was spuriously quarantined"


def test_concurrent_writers_distinct_keys_all_land(tmp_path):
    root = tmp_path / "store"
    src = Path(__file__).resolve().parent.parent / "src"
    procs = []
    for writer_id in range(2):
        key = str(writer_id) * 64
        code = WRITER.format(
            src=str(src),
            root=str(root),
            rounds=25,
            namespace=NAMESPACE,
            key=key,
            writer=writer_id,
        )
        procs.append(
            subprocess.Popen(
                [sys.executable, "-c", code],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={"PATH": "/usr/bin:/bin"},
            )
        )
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert int(out.strip()) == 25
    store = ArtifactStore(root)
    for writer_id in range(2):
        value = store.get(NAMESPACE, str(writer_id) * 64)
        assert value == {"writer": writer_id, "n": 24}
