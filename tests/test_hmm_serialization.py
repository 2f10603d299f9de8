"""Model JSON round trips and validation on read.

The model file is the diagnoser document: the HMM's arrays plus the fault
names, codebook and training echo around them.
"""

import json

import numpy as np
import pytest

from alarmhmm import (
    AlarmSymbolCodebook,
    DiagnoserModel,
    ModelFormatError,
    SchemaError,
    load_diagnoser,
    random_model,
    read_sequences_jsonl,
    save_diagnoser,
)
from alarmhmm.diagnoser import diagnoser_to_dict


def random_diagnoser(n_faults, n_measurements, seed):
    return DiagnoserModel(
        hmm=random_model(n_faults, 2 * n_measurements, seed=seed),
        fault_names=tuple(f"fault-{fault}" for fault in range(n_faults)),
        codebook=AlarmSymbolCodebook(n_measurements),
    )


def write_document(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def test_round_trip_is_exact_and_stable(tmp_path):
    model = random_diagnoser(3, 3, seed=77)
    path = tmp_path / "model.json"
    save_diagnoser(model, path)
    loaded = load_diagnoser(path)
    assert np.array_equal(loaded.hmm.transition, model.hmm.transition)
    assert np.array_equal(loaded.hmm.emission, model.hmm.emission)
    assert np.array_equal(loaded.hmm.initial, model.hmm.initial)
    assert loaded.fault_names == model.fault_names
    assert loaded.codebook == model.codebook

    second = tmp_path / "again.json"
    save_diagnoser(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_missing_field_rejected(tmp_path):
    doc = diagnoser_to_dict(random_diagnoser(2, 1, seed=1))
    del doc["initial"]
    with pytest.raises(ModelFormatError, match="initial"):
        load_diagnoser(write_document(tmp_path, doc))


def test_unsupported_version_rejected(tmp_path):
    doc = diagnoser_to_dict(random_diagnoser(2, 1, seed=1))
    doc["format_version"] = "999"
    with pytest.raises(ModelFormatError, match="format_version"):
        load_diagnoser(write_document(tmp_path, doc))


def test_invariant_violations_rejected(tmp_path):
    doc = diagnoser_to_dict(random_diagnoser(2, 1, seed=1))
    doc["transition"] = [[0.9, 0.2], [0.5, 0.5]]
    with pytest.raises(ModelFormatError, match="invalid"):
        load_diagnoser(write_document(tmp_path, doc))


def test_shape_mismatch_rejected(tmp_path):
    doc = diagnoser_to_dict(random_diagnoser(2, 1, seed=1))
    doc["n_states"] = 3
    with pytest.raises(ModelFormatError, match="n_states"):
        load_diagnoser(write_document(tmp_path, doc))


def test_non_json_rejected(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json {")
    with pytest.raises(ModelFormatError, match="JSON"):
        load_diagnoser(path)


def test_json_lines_word_a_syntax_error_like_the_model_document(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{broken\n")
    reason = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    with pytest.raises(ModelFormatError) as document:
        load_diagnoser(path)
    with pytest.raises(SchemaError) as lines:
        read_sequences_jsonl(path)
    assert str(document.value) == f"{path}: not valid JSON: {reason}"
    assert str(lines.value) == f"{path}:1: not valid JSON: {reason}"
