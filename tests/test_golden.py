"""Byte identity as a test: every golden artifact (``golden.py``) hashes as
``golden_manifest.json`` records, wherever the numeric environment matches
the manifest's."""

import json

import pytest

import golden


def test_artifacts_match_manifest(tmp_path):
    manifest = json.loads(golden.MANIFEST.read_text(encoding="utf-8"))
    here = golden.fingerprint()
    if here != manifest["fingerprint"]:
        pytest.skip(f"numeric environment {here} is not the manifest's "
                    f"{manifest['fingerprint']}")
    built = golden.build(tmp_path)
    expected = manifest["artifacts"]
    differ = sorted(name for name in expected.keys() | built.keys()
                    if expected.get(name) != built.get(name))
    assert not differ, f"artifacts differ from the manifest: {differ}"
