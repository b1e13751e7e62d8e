import json

import numpy as np
import pytest

from qcompat.devices import Instrument, InvariantViolation, Observable, QuantumChannel
from qcompat.deviceio import (
    decode_matrix,
    device_from_json,
    device_to_json,
    load_device,
    save_device,
)
from qcompat.sampling import random_channel, random_instrument

from conftest import random_observable


def assert_same_matrices(first, second):
    assert np.max(np.abs(np.asarray(first) - np.asarray(second))) <= 1e-15


class TestRoundTrip:
    def test_observable(self, rng, tmp_path):
        obs = random_observable(2, 3, rng)
        path = tmp_path / "obs.json"
        save_device(obs, path)
        loaded = load_device(path)
        assert isinstance(loaded, Observable)
        assert loaded.outcomes == obs.outcomes
        for e1, e2 in zip(loaded.effects, obs.effects):
            assert_same_matrices(e1, e2)

    def test_channel_kraus_representation(self, rng, tmp_path):
        chan = random_channel(2, 3, 2, rng)
        path = tmp_path / "chan.json"
        save_device(chan, path)
        doc = json.loads(path.read_text())
        assert doc["representation"] == "kraus"
        loaded = load_device(path)
        assert isinstance(loaded, QuantumChannel)
        assert (loaded.in_dim, loaded.out_dim) == (2, 3)
        assert_same_matrices(loaded.choi, chan.choi)
        for k1, k2 in zip(loaded.kraus, chan.kraus):
            assert_same_matrices(k1, k2)

    def test_channel_choi_representation(self, tmp_path):
        chan = QuantumChannel.depolarizing(2)
        path = tmp_path / "depol.json"
        save_device(chan, path)
        doc = json.loads(path.read_text())
        assert doc["representation"] == "choi"
        loaded = load_device(path)
        assert_same_matrices(loaded.choi, chan.choi)

    def test_instrument(self, rng, tmp_path):
        inst = random_instrument(2, 2, 3, 2, rng)
        path = tmp_path / "inst.json"
        save_device(inst, path)
        loaded = load_device(path)
        assert isinstance(loaded, Instrument)
        assert loaded.outcomes == inst.outcomes
        for b1, b2 in zip(loaded.branches, inst.branches):
            assert_same_matrices(b1, b2)

    def test_serialize_parse_serialize_is_stable(self, rng):
        inst = random_instrument(2, 2, 2, 1, rng)
        doc1 = device_to_json(inst)
        doc2 = device_to_json(device_from_json(doc1))
        assert doc1 == doc2


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InvariantViolation) as err:
            load_device(tmp_path / "nope.json")
        assert err.value.invariant == "file.readable"

    def test_bad_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(InvariantViolation) as err:
            load_device(path)
        assert err.value.invariant == "file.readable"

    def test_wrong_schema_version(self):
        with pytest.raises(InvariantViolation) as err:
            device_from_json({"schema_version": "999"})
        assert err.value.invariant == "file.schema_version"

    def test_unknown_kind(self):
        doc = {
            "schema_version": "1",
            "kind": "teleporter",
            "in_dim": 2,
            "representation": "choi",
            "matrices": {"choi": [[[1.0, 0.0]]]},
        }
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant == "file.kind"

    def test_missing_matrix_for_outcome(self, rng):
        doc = device_to_json(random_observable(2, 2, rng))
        del doc["matrices"]["1"]
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant == "file.matrices"

    @pytest.mark.parametrize("kind", ["observable", "instrument", "choi-channel"])
    def test_matrix_for_no_outcome(self, kind, rng):
        # An extra matrix must not be dropped without a word.
        if kind == "observable":
            doc = device_to_json(random_observable(2, 2, rng))
        elif kind == "instrument":
            doc = device_to_json(random_instrument(2, 2, 2, 1, rng))
        else:
            doc = device_to_json(QuantumChannel.depolarizing(2))
        doc["matrices"]["extra"] = next(iter(doc["matrices"].values()))
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant == "file.matrices"
        assert "extra" in str(err.value)

    @pytest.mark.parametrize("level", ["top", "matrices"])
    def test_repeated_key(self, level, tmp_path, fixtures_dir):
        # json.loads keeps the last of repeated keys, so the first would be
        # dropped unchecked: a wrong in_dim, or an effect that breaks the sum.
        text = json.dumps(json.loads((fixtures_dir / "sharp_z.json").read_text()))
        bad_plus = json.dumps([[[5.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        if level == "top":
            text = '{"in_dim": 3, ' + text[1:]
        else:
            text = text.replace('"matrices": {', f'"matrices": {{"+": {bad_plus}, ', 1)
        path = tmp_path / "repeated.json"
        path.write_text(text)
        with pytest.raises(InvariantViolation) as err:
            load_device(path)
        assert err.value.invariant == "file.duplicate_key"

    def test_bad_matrix_encoding(self, rng):
        doc = device_to_json(random_observable(2, 2, rng))
        doc["matrices"]["0"] = [[1.0, 0.0], [0.0, 1.0]]  # bare reals, not [re, im]
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant == "file.matrix_encoding"

    def test_device_invariant_named_on_bad_content(self, rng):
        doc = device_to_json(random_observable(2, 2, rng))
        doc["matrices"]["0"][0][0] = [5.0, 0.0]  # break the effect sum
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant.startswith("observable.")

    def test_instrument_requires_choi_representation(self, rng):
        doc = device_to_json(random_instrument(2, 2, 2, 1, rng))
        doc["representation"] = "kraus"
        with pytest.raises(InvariantViolation) as err:
            device_from_json(doc)
        assert err.value.invariant == "file.representation"


def test_decode_matrix_shape_check():
    with pytest.raises(InvariantViolation):
        decode_matrix([[[1.0, 0.0], [0.0, 0.0]]], "m")  # 1x2, not square


def test_fixture_files_load(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.json")):
        device = load_device(path)
        doc1 = device_to_json(device)
        doc2 = device_to_json(device_from_json(doc1))
        assert doc1 == doc2
