import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dknn
from dknn import cli
from dknn.cli import main
from dknn.features import Featurizer, fnv1a64
from dknn.model import load_checkpoint
from dknn.stores import InferenceConfig, iter_predictions, load_bundle, load_store, predict


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-synth -> train -> build-store shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    assert main([
        "gen-synth", "--out", str(data), "--n", "120", "--labels", "4",
        "--groups", "2", "--seed", "3",
    ]) == 0
    out = root / "run"
    assert main([
        "train", "--dataset", str(data), "--out", str(out), "--seed", "3",
        "--epochs", "3", "--batch-size", "32", "--embed-dim", "8",
        "--feature-dim", "256",
    ]) == 0
    assert main([
        "build-store", "--checkpoint", str(out / "checkpoint.dknm"),
        "--dataset", str(data), "--out", str(out),
    ]) == 0
    return root, data, out


class TestTrain:
    def test_outputs_exist(self, workspace):
        root, data, out = workspace
        assert (out / "checkpoint.dknm").is_file()
        assert (out / "history.jsonl").is_file()
        assert (out / "featurizer.json").is_file()
        assert (out / "effective_config.txt").is_file()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "absent.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "absent.jsonl" in capsys.readouterr().err

    def test_ll_off_history_has_zero_kl_cl(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "ceonly"
        assert main([
            "train", "--dataset", str(data), "--out", str(out), "--epochs", "2",
            "--batch-size", "32", "--embed-dim", "8", "--feature-dim", "128",
            "--ll", "off",
        ]) == 0
        for line in (out / "history.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert rec["kl"] == 0.0 and rec["cl"] == 0.0

    def test_checkpoint_round_trips(self, workspace, tmp_path):
        from dknn.model import load_checkpoint, save_checkpoint

        root, data, out = workspace
        ckpt = out / "checkpoint.dknm"
        params = load_checkpoint(ckpt)
        save_checkpoint(params, tmp_path / "again.dknm")
        assert ckpt.read_bytes() == (tmp_path / "again.dknm").read_bytes()


class TestBuildStore:
    def test_store_files_valid(self, workspace):
        root, data, out = workspace
        for name in ("store_text.dkns", "store_pro.dkns"):
            blob = (out / name).read_bytes()
            assert blob[:4] == b"DKNS"
        store = load_store(out / "store_text.dkns")
        assert store.n == 120

    def test_rebuild_byte_identical(self, workspace, tmp_path):
        root, data, out = workspace
        out2 = tmp_path / "rebuild"
        assert main([
            "build-store", "--checkpoint", str(out / "checkpoint.dknm"),
            "--dataset", str(data), "--out", str(out2),
            "--featurizer-file", str(out / "featurizer.json"),
        ]) == 0
        for name in ("store_text.dkns", "store_pro.dkns"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_reordered_dataset_keeps_the_model_class_ids(self, workspace, tmp_path):
        """Labels map to class ids by name, not by first occurrence in the
        dataset file, so a store built from the rows in reverse holds the
        same label on every row."""
        root, data, out = workspace
        reversed_data = tmp_path / "reversed.jsonl"
        reversed_data.write_text("".join(reversed(data.read_text().splitlines(True))))
        assert main(["build-store", "--checkpoint", str(out / "checkpoint.dknm"),
                     "--dataset", str(reversed_data), "--out", str(tmp_path)]) == 0
        for name in ("store_text.dkns", "store_pro.dkns"):
            original, rebuilt = load_store(out / name), load_store(tmp_path / name)
            assert np.array_equal(rebuilt.labels[::-1], original.labels)
            assert np.array_equal(rebuilt.keys[::-1], original.keys)

    def test_label_the_model_does_not_know_exit_3(self, workspace, tmp_path):
        root, data, out = workspace
        extra = tmp_path / "extra.jsonl"
        record = {"text": "g0w1", "label": "new", "coarse": "g0"}
        extra.write_text(data.read_text() + json.dumps(record) + "\n")
        line = _run_expecting_one_error_line(
            ["build-store", "--checkpoint", str(out / "checkpoint.dknm"),
             "--dataset", str(extra), "--out", str(tmp_path / "run")], 3)
        assert "'new'" in line
        assert not (tmp_path / "run").exists()


class TestPredict:
    def test_single_text_json(self, workspace, capsys):
        root, data, out = workspace
        rc = main([
            "predict", "--checkpoint", str(out / "checkpoint.dknm"),
            "--text", "g0w1 g0w2 l0w3", "--k", "4",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(doc) >= {"text", "label", "p_model", "p_knn", "p_final"}
        assert len(doc["p_model"]) == 4

    def test_lambda_zero_final_equals_model(self, workspace, capsys):
        root, data, out = workspace
        rc = main([
            "predict", "--checkpoint", str(out / "checkpoint.dknm"),
            "--text", "g1w1 g1w2", "--lambda", "0",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["p_final"] == doc["p_model"]

    def test_both_knn_disabled_omits_p_knn(self, workspace, capsys):
        root, data, out = workspace
        rc = main([
            "predict", "--checkpoint", str(out / "checkpoint.dknm"),
            "--text", "g0w1", "--no-text-knn", "--no-pro-knn",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "p_knn" not in doc
        assert doc["p_final"] == doc["p_model"]

    def test_file_input_one_object_per_line(self, workspace, tmp_path, capsys):
        root, data, out = workspace
        inputs = tmp_path / "in.txt"
        inputs.write_text("g0w1 g0w2\ng1w4 g1w5\nl2w1 g1w0\n")
        rc = main([
            "predict", "--checkpoint", str(out / "checkpoint.dknm"),
            "--file", str(inputs), "--k", "3",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_explain_adds_neighbors_and_plain_output_keeps_its_bytes(
            self, workspace, tmp_path, capsys):
        root, data, out = workspace
        texts = ["g0w1 g0w2", "g1w4 g1w5", "l2w1 g1w0"]
        inputs = tmp_path / "in.txt"
        inputs.write_text("\n".join(texts) + "\n")
        argv = ["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                "--file", str(inputs), "--k", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(argv + ["--explain"]) == 0
        explained = capsys.readouterr().out.splitlines()

        params = load_checkpoint(out / "checkpoint.dknm")
        doc = json.loads((out / "featurizer.json").read_text())
        feat = Featurizer.from_dict(doc["featurizer"])
        s_text = load_store(out / "store_text.dkns")
        s_pro = load_store(out / "store_pro.dkns")
        for text, line, explained_line in zip(texts, plain, explained, strict=True):
            b = predict(text, params, feat, s_text, s_pro, InferenceConfig(k=3))
            # the line without --explain, as serialized before neighbors existed
            expected = {"text": text, "label": b.label,
                        "label_name": doc["label_names"][b.label]}
            for key in ("p_model", "p_text_sharp", "p_pro_sharp", "p_knn", "p_final"):
                expected[key] = [float(v) for v in getattr(b, key)]
            assert line == json.dumps(expected)
            full = json.loads(explained_line)
            assert full.pop("neighbors") == {
                name: [[nb.index, nb.distance, nb.label] for nb in nbs]
                for name, nbs in (("text", b.text_neighbors), ("pro", b.pro_neighbors))
            }
            assert json.dumps(full) == line

    @pytest.mark.parametrize("flags", [[], ["--explain"], ["--no-pro-knn", "--explain"],
                                       ["--no-text-knn", "--no-pro-knn"]])
    def test_file_lines_keep_the_bytes_of_per_value_floats(self, workspace, tmp_path, capsys,
                                                           flags):
        """Distributions are printed through ndarray.tolist(); every line
        equals, byte for byte, the line built with one float(v) per value."""
        root, data, out = workspace
        texts = [json.loads(line)["text"] for line in data.read_text().splitlines()[:60]]
        texts += ["--- !!!", "unseen words only"]
        inputs = tmp_path / "in.txt"
        inputs.write_text("\n".join(texts) + "\n")
        assert main(["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                     "--file", str(inputs), "--k", "4"] + flags) == 0
        got = capsys.readouterr().out

        cfg = InferenceConfig(k=4, use_text_knn="--no-text-knn" not in flags,
                              use_pro_knn="--no-pro-knn" not in flags)
        bundle = load_bundle(out / "checkpoint.dknm", cfg=cfg)
        want = []
        for text, b in zip(texts, iter_predictions(texts, bundle.params, bundle.featurizer,
                                                   bundle.text_store, bundle.pro_store, cfg)):
            doc = {"text": text, "label": b.label, "label_name": bundle.label_names[b.label]}
            for key in ("p_model", "p_text_sharp", "p_pro_sharp", "p_knn", "p_final"):
                if getattr(b, key) is not None:
                    doc[key] = [float(v) for v in getattr(b, key)]
            if "--explain" in flags:
                doc["neighbors"] = {
                    name: [[nb.index, nb.distance, nb.label] for nb in nbs]
                    for name, nbs in (("text", b.text_neighbors), ("pro", b.pro_neighbors))
                    if nbs is not None
                }
            want.append(json.dumps(doc) + "\n")
        assert got == "".join(want)

    def test_file_output_equals_concatenated_text_outputs(self, workspace, tmp_path, capsys):
        root, data, out = workspace
        texts = ["g0w1 g0w2", "g1w4 g1w5", "--- !!!", "l2w1 g1w0", "unseen", "g0w1 g0w2"]
        inputs = tmp_path / "in.txt"
        inputs.write_text("\n".join(texts) + "\n")
        base = ["predict", "--checkpoint", str(out / "checkpoint.dknm"), "--k", "5",
                "--explain"]
        assert main(base + ["--file", str(inputs)]) == 0
        from_file = capsys.readouterr().out
        one_by_one = []
        for text in texts:
            assert main(base + ["--text", text]) == 0
            one_by_one.append(capsys.readouterr().out)
        assert from_file == "".join(one_by_one)

    def test_file_holds_one_breakdown_at_a_time(self, workspace, tmp_path, monkeypatch,
                                               capsys):
        """--file prints and drops each breakdown before the next is made, so
        a long file leaves the garbage collector no growing pile of them."""
        root, data, out = workspace
        inputs = tmp_path / "in.txt"
        inputs.write_text("\n".join(["g0w1 g0w2", "g1w4", "l2w1 g1w0", "unseen"] * 5) + "\n")
        seen, alive = [], []
        serialize = cli._breakdown_json

        def counting(text, breakdown, *args):
            alive.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(breakdown))
            return serialize(text, breakdown, *args)

        monkeypatch.setattr(cli, "_breakdown_json", counting)
        assert main(["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                     "--file", str(inputs)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 20
        assert alive == [0] * 20

    def test_explain_lists_only_enabled_stores(self, workspace, capsys):
        root, data, out = workspace
        assert main(["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                     "--text", "g0w1", "--k", "2", "--no-pro-knn", "--explain"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["neighbors"]) == ["text"]
        assert len(doc["neighbors"]["text"]) == 2

    def test_stale_store_exit_3(self, workspace, tmp_path, capsys):
        root, data, out = workspace
        other = tmp_path / "other"
        assert main([
            "train", "--dataset", str(data), "--out", str(other), "--seed", "99",
            "--epochs", "1", "--batch-size", "32", "--embed-dim", "8",
            "--feature-dim", "256",
        ]) == 0
        rc = main([
            "predict", "--checkpoint", str(other / "checkpoint.dknm"),
            "--featurizer-file", str(other / "featurizer.json"),
            "--text-store", str(out / "store_text.dkns"),
            "--pro-store", str(out / "store_pro.dkns"),
            "--text", "g0w1",
        ])
        assert rc == 3
        assert "fingerprint" in capsys.readouterr().err

    @pytest.mark.parametrize("content, texts", [
        ("g0w1\x0cg0w2\ng1w4\n", ["g0w1\x0cg0w2", "g1w4"]),
        ("g0w1\x1cg0w2\ng1w4\n", ["g0w1\x1cg0w2", "g1w4"]),
        ("g0w1\u2028g0w2\x85\ng1w4\u2029\n", ["g0w1\u2028g0w2\x85", "g1w4\u2029"]),
        ("g0w1 g0w2\r\ng1w4\r\n", ["g0w1 g0w2", "g1w4"]),
        ("g0w1 g0w2\rg1w4\r\rl2w1", ["g0w1 g0w2", "g1w4", "l2w1"]),
    ], ids=["form-feed", "x1c", "u2028", "crlf", "lone-cr"])
    def test_file_lines_end_only_where_open_ends_them(self, workspace, tmp_path, capsys,
                                                       content, texts):
        """One output line per non-blank input line, where lines end at \\n,
        \\r\\n or \\r, as for a dataset file."""
        root, data, out = workspace
        inputs = tmp_path / "in.txt"
        inputs.write_bytes(content.encode("utf-8"))
        assert main(["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                     "--file", str(inputs)]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines.pop() == ""
        assert [json.loads(line)["text"] for line in lines] == texts

    def test_missing_text_exit_2(self, workspace):
        root, data, out = workspace
        rc = main(["predict", "--checkpoint", str(out / "checkpoint.dknm")])
        assert rc == 2


def _bad_k(out, tmp_path):
    return ["--k", "abc"]


def _text_and_file(out, tmp_path):
    path = tmp_path / "in.txt"
    path.write_text("g0w1\n")
    return ["--file", str(path)]


def _featurizer_dim_mismatch(out, tmp_path):
    doc = json.loads((out / "featurizer.json").read_text())
    doc["featurizer"]["dim"] = 4096
    path = tmp_path / "featurizer.json"
    path.write_text(json.dumps(doc))
    return ["--featurizer-file", str(path)]


def _store_label_out_of_range(out, tmp_path):
    blob = (out / "store_text.dkns").read_bytes()
    n = load_store(out / "store_text.dkns").n
    path = tmp_path / "store_text.dkns"
    path.write_bytes(blob[: len(blob) - 4 * n] + struct.pack(f"<{n}I", *[99] * n))
    return ["--text-store", str(path)]


def _nan_weight(out, tmp_path):
    blob = bytearray((out / "checkpoint.dknm").read_bytes())
    blob[18:22] = struct.pack("<f", float("nan"))  # first entry of w1
    path = tmp_path / "checkpoint.dknm"
    path.write_bytes(bytes(blob))
    return ["--checkpoint", str(path), "--no-text-knn", "--no-pro-knn"]


def _tfidf_featurizer(out, tmp_path, idf):
    """A tf-idf featurizer.json as wide as the checkpoint, whose vocabulary
    holds the predicted text's token last, with idf(width) as its idf."""
    doc = json.loads((out / "featurizer.json").read_text())
    width = doc["featurizer"]["dim"]
    vocab = sorted(["g0w1"] + [f"a{i:04d}" for i in range(width - 1)])
    doc["featurizer"].update(mode="tfidf", vocabulary=vocab, idf=idf(width))
    path = tmp_path / "featurizer.json"
    path.write_text(json.dumps(doc))
    return ["--featurizer-file", str(path)]


def _idf_truncated(out, tmp_path):
    return _tfidf_featurizer(out, tmp_path, lambda width: [1.0] * 5)


def _idf_nan(out, tmp_path):
    return _tfidf_featurizer(out, tmp_path, lambda width: [float("nan")] * width)


def _idf_negative(out, tmp_path):
    return _tfidf_featurizer(out, tmp_path, lambda width: [-1.0] * width)


def _idf_huge_int(out, tmp_path):
    return _tfidf_featurizer(out, tmp_path, lambda width: [10**400] * width)


def _edited_featurizer(out, tmp_path, edit):
    """featurizer.json after ``edit(doc)``."""
    doc = json.loads((out / "featurizer.json").read_text())
    edit(doc)
    path = tmp_path / "featurizer.json"
    path.write_text(json.dumps(doc))
    return ["--featurizer-file", str(path)]


def _featurizer_dim_overflow(out, tmp_path):
    text = (out / "featurizer.json").read_text()
    path = tmp_path / "featurizer.json"
    path.write_text(text.replace('"dim": 256', '"dim": 1e400'))
    return ["--featurizer-file", str(path)]


def _featurizer_dim_u32(out, tmp_path):
    return _edited_featurizer(out, tmp_path, lambda doc: doc["featurizer"].update(dim=2**32))


def _label_names_string(out, tmp_path):
    # as many characters as the model has classes
    return _edited_featurizer(out, tmp_path, lambda doc: doc.update(label_names="abcd"))


def _label_names_duplicate(out, tmp_path):
    def edit(doc):
        doc["label_names"][1] = doc["label_names"][0]
    return _edited_featurizer(out, tmp_path, edit)


def _label_names_count(out, tmp_path):
    return _edited_featurizer(out, tmp_path, lambda doc: doc["label_names"].append("extra"))


def _vocabulary_not_strings(out, tmp_path):
    def edit(doc):
        width = doc["featurizer"]["dim"]
        doc["featurizer"].update(mode="tfidf", vocabulary=list(range(width)), idf=[1.0] * width)
    return _edited_featurizer(out, tmp_path, edit)


def _empty_vocabulary(out, tmp_path):
    def edit(doc):
        doc["featurizer"].update(mode="tfidf", vocabulary=[], idf=[])
    return _edited_featurizer(out, tmp_path, edit)


def _lowercase_not_bool(out, tmp_path):
    return _edited_featurizer(out, tmp_path, lambda doc: doc["featurizer"].update(lowercase="no"))


def _zero_classes(out, tmp_path):
    """A well-sized checkpoint with c = 0 (w1 and b1 alone) and a sidecar
    with no label names."""
    blob = (out / "checkpoint.dknm").read_bytes()
    f, d = struct.unpack_from("<II", blob, 6)
    path = tmp_path / "checkpoint.dknm"
    path.write_bytes(blob[:14] + struct.pack("<I", 0) + blob[18:18 + 4 * (f * d + d)])
    return ["--checkpoint", str(path), "--no-text-knn", "--no-pro-knn"] + _edited_featurizer(
        out, tmp_path, lambda doc: doc.update(label_names=[]))


def _zero_width(out, tmp_path):
    """A well-sized checkpoint with d = 0: b2 alone, every other block empty."""
    blob = (out / "checkpoint.dknm").read_bytes()
    f, d, c = struct.unpack_from("<III", blob, 6)
    b2 = 18 + 4 * (f * d + d + d * c)
    path = tmp_path / "checkpoint.dknm"
    path.write_bytes(blob[:10] + struct.pack("<I", 0) + blob[14:18] + blob[b2:b2 + 4 * c])
    return ["--checkpoint", str(path), "--no-text-knn", "--no-pro-knn"]


def _zero_features(out, tmp_path):
    """A well-sized checkpoint with F = 0: w1 empty, every other block whole."""
    blob = (out / "checkpoint.dknm").read_bytes()
    f, d = struct.unpack_from("<II", blob, 6)
    path = tmp_path / "checkpoint.dknm"
    path.write_bytes(blob[:6] + struct.pack("<I", 0) + blob[10:18] + blob[18 + 4 * f * d:])
    return ["--checkpoint", str(path), "--no-text-knn", "--no-pro-knn"]


def _swapped_store(out, tmp_path):
    return ["--text-store", str(out / "store_pro.dkns")]


def _store_nan_key(out, tmp_path):
    blob = bytearray((out / "store_text.dkns").read_bytes())
    blob[27:31] = struct.pack("<f", float("nan"))  # first entry of the first key
    path = tmp_path / "store_text.dkns"
    path.write_bytes(bytes(blob))
    return ["--text-store", str(path)]


@pytest.mark.parametrize(
    "corrupt, code",
    [
        (_bad_k, 2),
        (_text_and_file, 2),
        (_featurizer_dim_mismatch, 3),
        (_store_label_out_of_range, 4),
        (_nan_weight, 4),
        (_idf_truncated, 4),
        (_idf_nan, 4),
        (_idf_negative, 4),
        (_idf_huge_int, 4),
        (_store_nan_key, 4),
        (_featurizer_dim_overflow, 4),
        (_featurizer_dim_u32, 4),
        (_label_names_string, 4),
        (_label_names_duplicate, 4),
        (_label_names_count, 3),
        (_vocabulary_not_strings, 4),
        (_lowercase_not_bool, 4),
        (_swapped_store, 3),
        (_zero_classes, 4),
        (_zero_width, 4),
        (_zero_features, 4),
        (_empty_vocabulary, 4),
    ],
    ids=["k-not-int", "text-and-file", "featurizer-dim", "store-label-range", "nan-weight",
         "idf-truncated", "idf-nan", "idf-negative", "idf-huge-int", "store-nan-key",
         "featurizer-dim-overflow", "featurizer-dim-u32", "label-names-string", "label-names-duplicate",
         "label-names-count", "vocabulary-not-strings", "lowercase-not-bool",
         "swapped-store", "zero-classes", "zero-width", "zero-features",
         "empty-vocabulary"],
)
def test_predict_bad_input_exits_with_one_error_line(workspace, tmp_path, corrupt, code):
    root, data, out = workspace
    argv = [
        "predict", "--checkpoint", str(out / "checkpoint.dknm"),
        "--featurizer-file", str(out / "featurizer.json"),
        "--text-store", str(out / "store_text.dkns"),
        "--pro-store", str(out / "store_pro.dkns"),
        "--text", "g0w1",
    ] + corrupt(out, tmp_path)  # later flags win
    _run_expecting_one_error_line(argv, code)


@pytest.mark.parametrize(
    "flags, option",
    [
        (["--rho", "2"], "rho"),
        (["--learning-rate", "nan"], "learning_rate"),
        # F and d go into the checkpoint header as u32
        (["--feature-dim", str(2**32)], "featurizer dim"),
        (["--feature-dim", str(2**60)], "featurizer dim"),
        (["--embed-dim", str(2**32)], "embed_dim"),
        (["--embed-dim", str(10**12)], "embed_dim"),
    ],
    ids=["rho-out-of-range", "learning-rate-nan", "feature-dim-2pow32", "feature-dim-2pow60",
         "embed-dim-2pow32", "embed-dim-1e12"],
)
def test_train_bad_config_exits_with_one_error_line(workspace, tmp_path, flags, option):
    root, data, out = workspace
    argv = ["train", "--dataset", str(data), "--out", str(tmp_path / "run"),
            "--epochs", "1", "--feature-dim", "64", "--embed-dim", "4"] + flags
    line = _run_expecting_one_error_line(argv, 2)
    assert option in line


def _tokenless_dataset(tmp_path) -> Path:
    """Four texts that are empty or punctuation only, so none has a token."""
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"text": text, "label": label}) + "\n" for text, label
                            in [("!!!", "a"), ("...", "b"), ("", "a"), ("?", "b")]))
    return data


def test_tfidf_without_a_training_token_exits_2(tmp_path):
    argv = ["train", "--dataset", str(_tokenless_dataset(tmp_path)),
            "--out", str(tmp_path / "run"), "--featurizer", "tfidf", "--epochs", "1"]
    line = _run_expecting_one_error_line(argv, 2)
    assert "no training text yields a token" in line
    assert not (tmp_path / "run" / "checkpoint.dknm").exists()


def test_hashing_without_a_training_feature_exits_2(tmp_path):
    """Every text would be the zero vector, and the model b1 alone."""
    argv = ["train", "--dataset", str(_tokenless_dataset(tmp_path)),
            "--out", str(tmp_path / "run"), "--epochs", "1"]
    line = _run_expecting_one_error_line(argv, 2)
    assert "no training text yields a feature" in line
    assert not (tmp_path / "run" / "checkpoint.dknm").exists()


NOT_UTF8 = b"text,label\ncaf\xe9 ok,a\n"  # a Latin-1 byte, as a UTF-8 decoder sees it


@pytest.mark.parametrize("case", ["dataset-csv", "dataset-jsonl", "config", "predict-file"])
def test_non_utf8_input_exits_2(workspace, tmp_path, case):
    root, data, out = workspace
    train = ["train", "--out", str(tmp_path / "run"), "--epochs", "1",
             "--feature-dim", "64", "--embed-dim", "4"]
    if case == "dataset-csv":
        (tmp_path / "bad.csv").write_bytes(NOT_UTF8)
        argv = train + ["--dataset", str(tmp_path / "bad.csv")]
    elif case == "dataset-jsonl":
        (tmp_path / "bad.jsonl").write_bytes(b'{"text": "caf\xe9", "label": "a"}\n')
        argv = train + ["--dataset", str(tmp_path / "bad.jsonl")]
    elif case == "config":
        (tmp_path / "bad.cfg").write_bytes(b"# caf\xe9\nepochs=1\n")
        argv = train + ["--dataset", str(data), "--config", str(tmp_path / "bad.cfg")]
    else:
        (tmp_path / "in.txt").write_bytes(b"g0w1 caf\xe9\n")
        argv = ["predict", "--checkpoint", str(out / "checkpoint.dknm"),
                "--file", str(tmp_path / "in.txt")]
    line = _run_expecting_one_error_line(argv, 2)
    assert "UTF-8" in line


@pytest.mark.parametrize(
    "record, field",
    [
        ({"text": None, "label": "a"}, "text"),
        ({"text": "x", "label": ["a"]}, "label"),
        ({"text": "x", "label": {"z": 1}}, "label"),
        ({"text": "x", "label": "a", "coarse": True}, "coarse"),
    ],
    ids=["text-null", "label-list", "label-dict", "coarse-bool"],
)
def test_dataset_field_of_wrong_type_exits_2(workspace, tmp_path, record, field):
    root, data, out = workspace
    bad = tmp_path / "bad.jsonl"
    bad.write_text(data.read_text() + json.dumps(record) + "\n")
    n = len(data.read_text().splitlines()) + 1
    argv = ["train", "--dataset", str(bad), "--out", str(tmp_path / "run"), "--epochs", "1",
            "--feature-dim", "64", "--embed-dim", "4"]
    line = _run_expecting_one_error_line(argv, 2)
    assert line.startswith(f"error: {bad}:{n}: '{field}' must be")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "2.5"])
def test_sweep_k_must_be_a_whole_number(workspace, tmp_path, value):
    root, data, out = workspace
    argv = ["sweep", "--dataset", str(data), "--out", str(tmp_path / "sweep"),
            "--param", "k", "--values", f"4,{value}", "--repeats", "1",
            "--epochs", "1", "--feature-dim", "64", "--embed-dim", "4"]
    line = _run_expecting_one_error_line(argv, 2)
    assert "k must be a whole number" in line
    assert not (tmp_path / "sweep" / "report.json").exists()


@pytest.mark.parametrize("case", ["build-store-out-under-file", "export-store-out-missing-dir"])
def test_unwritable_output_path_exits_2(workspace, tmp_path, case):
    root, data, out = workspace
    blocker = tmp_path / "file"
    blocker.write_text("")
    if case == "build-store-out-under-file":
        target = blocker / "run"
        argv = ["build-store", "--checkpoint", str(out / "checkpoint.dknm"),
                "--dataset", str(data), "--out", str(target)]
    else:
        target = tmp_path / "missing" / "store.tsv"
        argv = ["export-store", "--store", str(out / "store_text.dkns"), "--out", str(target)]
    line = _run_expecting_one_error_line(argv, 2)
    assert str(target) in line and ".tmp" not in line


@pytest.mark.parametrize("case", ["train-dataset", "build-store-dataset", "gen-synth-out"])
def test_directory_as_dataset_path_exits_2(workspace, tmp_path, case):
    root, data, out = workspace
    target = tmp_path / "data.jsonl"
    target.mkdir()
    if case == "train-dataset":
        argv = ["train", "--dataset", str(target), "--out", str(tmp_path / "run")]
    elif case == "build-store-dataset":
        argv = ["build-store", "--checkpoint", str(out / "checkpoint.dknm"),
                "--dataset", str(target), "--out", str(tmp_path / "run")]
    else:
        argv = ["gen-synth", "--out", str(target), "--n", "20"]
    line = _run_expecting_one_error_line(argv, 2)
    assert str(target) in line and ".tmp" not in line
    assert target.is_dir() and not any(target.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


FUZZED = {"checkpoint.dknm": "--checkpoint", "featurizer.json": "--featurizer-file",
          "store_text.dkns": "--text-store", "store_pro.dkns": "--pro-store"}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(FUZZED)), truncate=st.booleans(), data=st.data())
def test_flipped_or_truncated_artifact_exits_0_3_or_4(workspace, name, truncate, data):
    """One bit flipped in, or the tail cut off, a real artifact: predict
    still answers, or exits 3 or 4, and raises nothing."""
    root, _, out = workspace
    blob = bytearray((out / name).read_bytes())
    if truncate:
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        # headers are small, so half the flips land in the first 64 bytes
        bit = data.draw(st.one_of(st.integers(0, 8 * 64 - 1),
                                  st.integers(0, 8 * len(blob) - 1)), label="bit")
        blob[bit // 8] ^= 1 << (bit % 8)
    fuzzed = root / "fuzz" / name
    fuzzed.parent.mkdir(exist_ok=True)
    fuzzed.write_bytes(bytes(blob))
    argv = ["predict", "--text", "g0w1 g0w2 l0w3", "--explain"]
    for artifact, flag in FUZZED.items():
        argv += [flag, str(fuzzed if artifact == name else out / artifact)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 3, 4), err.getvalue()


def _run_expecting_one_error_line(argv: list[str], code: int) -> str:
    """Run ``dknn`` in a subprocess; it must exit ``code`` with exactly one
    ``error:`` line on stderr and no traceback. Returns that line."""
    env = dict(os.environ, PYTHONPATH=str(Path(dknn.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dknn.cli"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


class TestExportStore:
    def test_tsv_shape_and_round_trip(self, workspace, capsys):
        root, data, out = workspace
        rc = main(["export-store", "--store", str(out / "store_text.dkns")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        store = load_store(out / "store_text.dkns")
        assert lines[0].split("\t") == ["label"] + [f"k{i}" for i in range(store.dim)]
        assert len(lines) == store.n + 1
        for i in (0, store.n - 1):
            fields = lines[i + 1].split("\t")
            assert int(fields[0]) == int(store.labels[i])
            values = np.array([np.float32(v) for v in fields[1:]])
            assert np.array_equal(values, store.keys[i])

    def test_corrupt_store_exit_4(self, workspace, tmp_path, capsys):
        root, data, out = workspace
        bad = tmp_path / "bad.dkns"
        bad.write_bytes((out / "store_text.dkns").read_bytes()[:-7])
        rc = main(["export-store", "--store", str(bad)])
        assert rc == 4
        assert f"error: {bad}: size" in capsys.readouterr().err


class TestExperimentCommands:
    def test_experiment_writes_reports(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        out = tmp_path / "exp"
        rc = main([
            "experiment", "--dataset", str(data), "--out", str(out),
            "--repeats", "2", "--epochs", "2", "--batch-size", "32",
            "--embed-dim", "8", "--feature-dim", "128", "--k", "4",
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert [r["config"] for r in doc["rows"]] == ["model", "dknn"]
        assert (out / "report.txt").is_file()

    def test_experiment_idempotent_byte_identical(self, workspace, tmp_path):
        root, data, _ = workspace
        args = lambda out: [
            "experiment", "--dataset", str(data), "--out", str(out),
            "--repeats", "2", "--epochs", "2", "--batch-size", "32",
            "--embed-dim", "8", "--feature-dim", "128", "--seed", "21",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args(out1)) == 0
        assert main(args(out2)) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()

    def test_sweep_rows(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--dataset", str(data), "--out", str(out),
            "--param", "lambda", "--values", "0,0.5,1", "--repeats", "1",
            "--epochs", "2", "--batch-size", "32", "--embed-dim", "8",
            "--feature-dim", "128",
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert [r["config"] for r in doc["rows"]] == [
            "lambda=0", "lambda=0.5", "lambda=1",
        ]

    def test_noise_rows(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "noise"
        rc = main([
            "noise", "--dataset", str(data), "--out", str(out),
            "--ratios", "0,0.3,0.5", "--repeats", "1", "--epochs", "2",
            "--batch-size", "32", "--embed-dim", "8", "--feature-dim", "128",
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 3

    def test_ablate_eight_rows(self, workspace, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "ablate"
        rc = main([
            "ablate", "--dataset", str(data), "--out", str(out),
            "--repeats", "1", "--epochs", "2", "--batch-size", "32",
            "--embed-dim", "8", "--feature-dim", "128", "--k", "4",
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["rows"]) == 8


class TestConfigFile:
    def test_config_file_with_cli_override(self, workspace, tmp_path):
        root, data, _ = workspace
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            f"dataset={data}\n"
            "epochs=2\nbatch_size=32\nembed_dim=8\nfeature_dim=128\nrepeats=1\n"
        )
        out = tmp_path / "out"
        rc = main(["experiment", "--config", str(cfg), "--out", str(out),
                   "--repeats", "2"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["meta"]["repeats"] == 2  # CLI wins over file
        echoed = (out / "effective_config.txt").read_text()
        assert "epochs=2" in echoed

    def test_unknown_config_key_exit_2(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option=1\n")
        rc = main(["experiment", "--config", str(cfg), "--dataset", str(data),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "no_such_option" in capsys.readouterr().err

    def test_config_lines_end_only_where_open_ends_them(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("a=1\x0cb=2\u2028x\rc=3\r\n# d=4\x1ce=5\nf=6".encode("utf-8"))
        assert cli.load_config_file(cfg) == {"a": "1\x0cb=2\u2028x", "c": "3", "f": "6"}

    def test_malformed_config_line_exit_2(self, workspace, tmp_path):
        root, data, _ = workspace
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        rc = main(["experiment", "--config", str(cfg), "--dataset", str(data),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestGenSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["gen-synth", "--out", str(path), "--n", "50",
                         "--seed", "8"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        path = tmp_path / "d.csv"
        assert main(["gen-synth", "--out", str(path), "--n", "30",
                     "--format", "csv"]) == 0
        header = path.read_text().splitlines()[0]
        assert header == "text,label,coarse"


def test_sub_seed_is_stable():
    # regression pin: the documented xor-with-tag derivation
    assert (5 ^ fnv1a64("train")) & ((1 << 64) - 1) == (5 ^ fnv1a64("train"))
