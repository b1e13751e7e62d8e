"""JSON device files.

One file holds one device:

.. code-block:: json

    {
      "schema_version": "1",
      "kind": "observable" | "channel" | "instrument",
      "in_dim": 2,
      "out_dim": 2,                  // absent for observables
      "outcomes": ["0", "1"],        // absent for channels
      "representation": "effects" | "kraus" | "choi",
      "matrices": {"0": [[[1.0, 0.0], ...], ...], ...}
    }

Matrix entries are explicit [re, im] pairs, row-major, so fixtures stay
bit-exact and language neutral.  Observables use ``representation:
"effects"`` with matrices named by outcome; channels use ``"kraus"``
(matrices ``K0``, ``K1``, ...) or ``"choi"`` (the one matrix ``choi``);
instruments use ``"choi"`` with one branch matrix per outcome.  The
matrices of an observable or instrument are named by exactly its outcomes.
No object may repeat a key.
Dimensions are positive integers, outcomes a list of strings, and an
observable's ``in_dim`` is the dimension of its effects.

Loading validates the device and fails by naming the first violated
invariant.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any

import numpy as np

from .devices import (
    Instrument,
    InvariantViolation,
    Observable,
    QuantumChannel,
    kraus_to_choi,
)

SCHEMA_VERSION = "1"

Device = Observable | QuantumChannel | Instrument


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_matrix(data: Any, name: str, square: bool = True) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation("file.matrix_encoding", f"matrix {name!r}: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or (square and arr.shape[0] != arr.shape[1]):
        raise InvariantViolation(
            "file.matrix_encoding",
            f"matrix {name!r} must be {'square ' if square else ''}with [re, im] "
            f"entries, got shape {arr.shape}",
        )
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation("file.matrix_finite", f"matrix {name!r} has non-finite entries")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def device_to_json(dev: Device) -> dict:
    if isinstance(dev, Observable):
        kind, representation, named = "observable", "effects", zip(dev.outcomes, dev.effects)
    elif isinstance(dev, Instrument):
        kind, representation, named = "instrument", "choi", zip(dev.outcomes, dev.branches)
    elif isinstance(dev, QuantumChannel) and dev.kraus is not None:
        kind, representation, named = "channel", "kraus", ((f"K{i}", k) for i, k in enumerate(dev.kraus))
    elif isinstance(dev, QuantumChannel):
        kind, representation, named = "channel", "choi", [("choi", dev.choi)]
    else:
        raise TypeError(f"not a device: {type(dev).__name__}")
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "in_dim": dev.in_dim}
    if kind != "observable":
        doc["out_dim"] = dev.out_dim
    if kind != "channel":
        doc["outcomes"] = list(dev.outcomes)
    doc["representation"] = representation
    doc["matrices"] = {name: encode_matrix(m) for name, m in named}
    return doc


def _field(doc: dict, key: str, invariant: str) -> Any:
    if key not in doc:
        raise InvariantViolation(invariant, f"missing field {key!r}")
    return doc[key]


def _dim(doc: dict, key: str) -> int:
    value = _field(doc, key, f"file.{key}")
    # bool is an int subclass; JSON true must not read as dimension 1.
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvariantViolation(f"file.{key}", f"must be a positive integer, got {value!r}")
    return value


def _outcomes(doc: dict) -> list[str]:
    outcomes = _field(doc, "outcomes", "file.outcomes")
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
        raise InvariantViolation("file.outcomes", f"must be a list of strings, got {outcomes!r}")
    return outcomes


def device_from_json(doc: dict) -> Device:
    if not isinstance(doc, dict):
        raise InvariantViolation("file.schema", "top level must be a JSON object")
    version = _field(doc, "schema_version", "file.schema_version")
    if str(version) != SCHEMA_VERSION:
        raise InvariantViolation(
            "file.schema_version", f"unsupported version {version!r}"
        )
    kind = _field(doc, "kind", "file.kind")
    in_dim = _dim(doc, "in_dim")
    representation = _field(doc, "representation", "file.representation")
    matrices = _field(doc, "matrices", "file.matrices")
    if not isinstance(matrices, dict) or not matrices:
        raise InvariantViolation("file.matrices", "matrices must be a non-empty object")

    if kind == "observable":
        if representation != "effects":
            raise InvariantViolation(
                "file.representation", f"observables use 'effects', got {representation!r}"
            )
        outcomes = _outcomes(doc)
        effects = [decode_matrix(matrices[label], label) for label in _checked_labels(outcomes, matrices)]
        observable = Observable(effects, outcomes)
        if observable.in_dim != in_dim:
            d = observable.in_dim
            raise InvariantViolation("file.in_dim", f"in_dim is {in_dim}, the effects are {d}x{d}")
        return observable

    if kind == "channel":
        out_dim = _dim(doc, "out_dim")
        if representation == "kraus":
            names = sorted(matrices, key=_kraus_index)
            kraus = [decode_matrix(matrices[n], n, square=False) for n in names]
            bad = [n for n, k in zip(names, kraus) if k.shape != (out_dim, in_dim)]
            if bad:
                shape = f"({out_dim}, {in_dim})"
                raise InvariantViolation("channel.kraus_shape", f"{bad} are not of shape {shape}")
            return QuantumChannel(kraus_to_choi(kraus), in_dim, out_dim, kraus=kraus)
        if representation == "choi":
            if set(matrices) != {"choi"}:
                raise InvariantViolation(
                    "file.matrices", f"a 'choi' channel has the one matrix 'choi', got {sorted(matrices)}"
                )
            return QuantumChannel(decode_matrix(matrices["choi"], "choi"), in_dim, out_dim)
        raise InvariantViolation(
            "file.representation", f"channels use 'kraus' or 'choi', got {representation!r}"
        )

    if kind == "instrument":
        if representation != "choi":
            raise InvariantViolation(
                "file.representation", f"instruments use 'choi', got {representation!r}"
            )
        out_dim = _dim(doc, "out_dim")
        outcomes = _outcomes(doc)
        branches = [decode_matrix(matrices[label], label) for label in _checked_labels(outcomes, matrices)]
        return Instrument(branches, in_dim, out_dim, outcomes)

    raise InvariantViolation("file.kind", f"unknown device kind {kind!r}")


def _checked_labels(outcomes: list[str], matrices: dict) -> list[str]:
    missing = [o for o in outcomes if o not in matrices]
    if missing:
        raise InvariantViolation(
            "file.matrices", f"no matrix for outcome(s) {missing}"
        )
    extra = [name for name in matrices if name not in outcomes]
    if extra:
        raise InvariantViolation("file.matrices", f"matrices {extra} name no outcome")
    return outcomes


def _kraus_index(name: str) -> int:
    if name.startswith("K") and name[1:].isdigit():
        return int(name[1:])
    raise InvariantViolation("file.matrices", f"Kraus matrices are named K0, K1, ...: got {name!r}")


def save_device(dev: Device, path: str | Path) -> None:
    Path(path).write_text(json.dumps(device_to_json(dev), indent=1), encoding="utf-8")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """Object hook: ``json.loads`` would keep only the last of repeated keys."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InvariantViolation("file.duplicate_key", f"keys {repeated} appear more than once")
    return doc


def load_device(path: str | Path) -> Device:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvariantViolation("file.readable", f"{path}: {exc}") from exc
    return device_from_json(doc)
