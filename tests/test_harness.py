import json
from dataclasses import replace

import numpy as np
import pytest

from dknn import harness
from dknn.exceptions import ValidationError
from dknn.features import FeaturizerConfig
from dknn.harness import (
    Dataset,
    ExperimentConfig,
    RowSpec,
    SyntheticSpec,
    ablation_suite,
    generate_synthetic,
    inject_noise,
    load_dataset,
    run_experiment,
    save_dataset,
    split,
    sweep,
)
from dknn.model import LLConfig
from dknn.stores import InferenceConfig
from dknn.trainer import TrainConfig


class TestLoadDataset:
    def test_jsonl_basic(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"text": "hello", "label": "A"}\n{"text": "bye", "label": "B"}\n'
        )
        ds = load_dataset(path)
        assert ds.n == 2
        assert ds.label_names == ["A", "B"]
        assert ds.coarse_of_label is None

    def test_csv_with_coarse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "text,label,coarse\nfoo,A,G1\nbar,B,G1\nbaz,C,G2\n"
        )
        ds = load_dataset(path)
        assert ds.n == 3
        assert ds.coarse_of_label == [0, 0, 1]
        assert ds.coarse_names == ["G1", "G2"]

    def test_duplicate_texts_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "A"}\n' * 3)
        assert load_dataset(path).n == 3

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "A"}\nnot-json\n')
        with pytest.raises(ValidationError, match=":2"):
            load_dataset(path)

    def test_missing_field_rejected(self, tmp_path):
        """A record needs a string text, and a label and any coarse that are
        a string or an integer; a null coarse is an absent one."""
        path = tmp_path / "d.jsonl"
        good = '{"text": "ok", "label": "A"}\n'
        for record in [
            {"text": "x"},
            {"text": None, "label": "A"},
            {"text": 3, "label": "A"},
            {"text": ["x"], "label": "A"},
            {"text": "x", "label": None},
            {"text": "x", "label": True},
            {"text": "x", "label": 1.5},
            {"text": "x", "label": ["A"]},
            {"text": "x", "label": {"z": 1}},
            {"text": "x", "label": "A", "coarse": False},
            {"text": "x", "label": "A", "coarse": 2.0},
            {"text": "x", "label": "A", "coarse": {"g": 1}},
        ]:
            path.write_text(good + json.dumps(record) + "\n")
            with pytest.raises(ValidationError, match=f"^{path}:2: "):
                load_dataset(path)

    def test_integer_label_and_null_coarse_accepted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": 7, "coarse": null}\n'
                        '{"text": "y", "label": "7"}\n'
                        '{"text": "z", "label": -1}\n')
        ds = load_dataset(path)
        assert ds.label_names == ["7", "-1"] and ds.labels == [0, 0, 1]
        assert ds.coarse_of_label is None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError):
            load_dataset(path)

    def test_partial_coarse_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"text": "x", "label": "A", "coarse": "G"}\n{"text": "y", "label": "B"}\n'
        )
        with pytest.raises(ValidationError, match="coarse"):
            load_dataset(path)

    def test_inconsistent_coarse_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("text,label,coarse\nx,A,G1\ny,A,G2\n")
        with pytest.raises(ValidationError, match="two coarse groups"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.jsonl"):
            load_dataset(tmp_path / "nope.jsonl")

    def test_round_trip_jsonl_and_csv(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n=20, n_labels=4, n_groups=2, seed=5))
        for fmt in ("jsonl", "csv"):
            path = tmp_path / f"d.{fmt if fmt == 'csv' else 'jsonl'}"
            save_dataset(ds, path, fmt)
            back = load_dataset(path, fmt)
            assert back.texts == ds.texts
            assert back.labels == ds.labels
            assert back.coarse_of_label == ds.coarse_of_label


class TestSplit:
    def _ds(self, n=10):
        return Dataset(
            texts=[f"t{i}" for i in range(n)],
            labels=[i % 2 for i in range(n)],
            label_names=["a", "b"],
        )

    def test_sizes(self):
        tr, te = split(self._ds(10), 0.7, 1)
        assert tr.n == 7 and te.n == 3

    def test_same_seed_identical(self):
        tr1, te1 = split(self._ds(20), 0.7, 5)
        tr2, te2 = split(self._ds(20), 0.7, 5)
        assert tr1.texts == tr2.texts and te1.texts == te2.texts

    def test_union_is_original_multiset(self):
        ds = self._ds(13)
        tr, te = split(ds, 0.6, 9)
        assert sorted(tr.texts + te.texts) == sorted(ds.texts)

    def test_empty_side_rejected(self):
        with pytest.raises(ValidationError):
            split(self._ds(3), 0.1, 0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValidationError):
            split(self._ds(10), 1.0, 0)


class TestInjectNoise:
    def _grouped(self, n=100):
        return generate_synthetic(SyntheticSpec(n=n, n_labels=6, n_groups=2, seed=3))

    def test_zero_ratio_identity(self):
        ds = self._grouped()
        noisy = inject_noise(ds, 0.0, 1)
        assert noisy.labels == ds.labels
        assert noisy is not ds

    def test_exact_count_changed(self):
        ds = self._grouped(100)
        noisy = inject_noise(ds, 0.3, 2)
        diff = sum(a != b for a, b in zip(ds.labels, noisy.labels))
        assert diff == 30

    def test_full_ratio_changes_every_label_within_group(self):
        ds = self._grouped(60)
        noisy = inject_noise(ds, 1.0, 3)
        for old, new in zip(ds.labels, noisy.labels):
            assert old != new
            assert ds.coarse_of_label[old] == ds.coarse_of_label[new]

    def test_pure_function_original_untouched(self):
        ds = self._grouped(50)
        before = list(ds.labels)
        inject_noise(ds, 0.5, 4)
        assert ds.labels == before

    def test_ungrouped_uses_all_other_labels(self):
        ds = Dataset(
            texts=[f"t{i}" for i in range(40)],
            labels=[i % 4 for i in range(40)],
            label_names=list("abcd"),
        )
        noisy = inject_noise(ds, 1.0, 5)
        assert all(a != b for a, b in zip(ds.labels, noisy.labels))

    def test_singleton_group_rejected(self):
        ds = Dataset(
            texts=["x", "y"], labels=[0, 1], label_names=["a", "b"],
            coarse_of_label=[0, 1], coarse_names=["g0", "g1"],
        )
        with pytest.raises(ValidationError):
            inject_noise(ds, 1.0, 6)

    def test_deterministic(self):
        ds = self._grouped(80)
        assert inject_noise(ds, 0.4, 7).labels == inject_noise(ds, 0.4, 7).labels


class TestSynthetic:
    def test_shape_and_grouping(self):
        ds = generate_synthetic(SyntheticSpec(n=50, n_labels=10, n_groups=3, seed=1))
        assert ds.n == 50
        assert ds.num_labels == 10
        assert len(set(ds.coarse_of_label)) == 3
        # round robin: balanced labels
        counts = np.bincount(ds.labels, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        spec = SyntheticSpec(n=30, seed=9)
        assert generate_synthetic(spec).texts == generate_synthetic(spec).texts

    def test_doc_lengths_in_range(self):
        spec = SyntheticSpec(n=40, min_len=20, max_len=50, seed=2)
        for text in generate_synthetic(spec).texts:
            assert 20 <= len(text.split()) <= 50


def quick_config(n=120, repeats=2, epochs=3, **kw) -> ExperimentConfig:
    ds = generate_synthetic(SyntheticSpec(n=n, n_labels=4, n_groups=2, seed=11))
    return ExperimentConfig(
        dataset=ds,
        seed=5,
        repeats=repeats,
        featurizer=FeaturizerConfig(dim=128),
        train=TrainConfig(batch_size=32, epochs=epochs, embed_dim=8, ll=LLConfig()),
        inference=InferenceConfig(k=4, lam=0.5),
        **kw,
    )


class TestRunExperiment:
    def test_default_rows_and_repeat_counts(self):
        report = run_experiment(quick_config())
        assert [r.config for r in report.rows] == ["model", "dknn"]
        assert all(len(r.repeats) == 2 for r in report.rows)
        assert all(0.0 <= v <= 1.0 for r in report.rows for v in r.repeats)

    def test_single_repeat_std_zero(self):
        report = run_experiment(quick_config(repeats=1))
        assert all(r.std == 0.0 for r in report.rows)

    def test_same_seed_identical_reports(self):
        r1 = run_experiment(quick_config())
        r2 = run_experiment(quick_config())
        assert r1.to_json() == r2.to_json()
        assert r1.to_table() == r2.to_table()

    def test_lambda_zero_equals_pure_model(self):
        cfg = quick_config()
        from dknn.harness import RowSpec

        rows = [
            RowSpec("model", cfg.train.ll, None),
            RowSpec("lam0", cfg.train.ll, replace(cfg.inference, lam=0.0)),
        ]
        report = run_experiment(cfg, rows)
        assert report.row("model").repeats == report.row("lam0").repeats

    def test_json_schema(self):
        report = run_experiment(quick_config(repeats=1))
        doc = json.loads(report.to_json())
        assert set(doc) == {"rows", "meta"}
        row = doc["rows"][0]
        assert set(row) == {"config", "mean", "std", "repeats"}

    def test_wall_clock_present_in_memory_not_json(self):
        report = run_experiment(quick_config(repeats=1))
        assert report.wall_clock > 0.0
        assert "wall_clock" not in report.to_json()


class TestAblationSuite:
    def test_row_set(self):
        report = ablation_suite(quick_config())
        assert [r.config for r in report.rows] == [
            "base", "base+dknn", "ll", "ll+dknn",
            "ll+dknn-wo-pro", "ll+dknn-wo-text", "ce+kl", "ce+cl",
        ]

    def test_base_row_matches_plain_experiment(self):
        cfg = quick_config()
        suite = ablation_suite(cfg)
        base_cfg = quick_config()
        base_cfg.train = replace(base_cfg.train,
                                 ll=LLConfig(enable_kl=False, enable_cl=False))
        plain = run_experiment(base_cfg)
        assert suite.row("base").repeats == plain.row("model").repeats

    def test_paired_split_hashes_in_meta(self):
        r1 = ablation_suite(quick_config())
        r2 = run_experiment(quick_config())
        assert r1.meta["split_hashes"] == r2.meta["split_hashes"]


def _no_training(*args, **kwargs):
    raise AssertionError("a model was trained")


class TestRowChecks:
    """Every row is checked before the first model is trained."""

    @pytest.mark.parametrize(
        "row",
        [
            RowSpec("lam", LLConfig(), InferenceConfig(k=4, lam=1.5)),
            RowSpec("k", LLConfig(), InferenceConfig(k=0)),
            RowSpec("rho", LLConfig(rho=2.0), None),
            RowSpec("noise", LLConfig(), None, noise_ratio=1.5),
        ],
        ids=lambda row: row.config_id,
    )
    def test_a_bad_row_is_rejected_before_training(self, monkeypatch, row):
        monkeypatch.setattr(harness, "train", _no_training)
        cfg = quick_config()
        with pytest.raises(ValidationError):
            run_experiment(cfg, [RowSpec("model", cfg.train.ll, None), row])

    @pytest.mark.parametrize("parameter, value", [("lambda", 1.5), ("lambda", -0.5),
                                                  ("noise_ratio", 1.5), ("k", -1.0)])
    def test_a_bad_sweep_value_is_rejected_before_training(self, monkeypatch, parameter,
                                                             value):
        monkeypatch.setattr(harness, "train", _no_training)
        with pytest.raises(ValidationError):
            sweep(quick_config(), parameter, [0.5, value])


class TestSweep:
    def test_lambda_sweep_zero_row_equals_base(self):
        cfg = quick_config()
        report = sweep(cfg, "lambda", [0.0, 0.5, 1.0])
        assert [r.config for r in report.rows] == ["lambda=0", "lambda=0.5", "lambda=1"]
        base_cfg = quick_config()
        plain = run_experiment(base_cfg)
        assert report.row("lambda=0").repeats == plain.row("model").repeats

    def test_noise_sweep_emits_requested_rows(self):
        report = sweep(quick_config(repeats=1, epochs=2), "noise_ratio",
                       [0.0, 0.03, 0.06, 0.30, 0.50])
        assert [r.config for r in report.rows] == [
            "noise=0", "noise=0.03", "noise=0.06", "noise=0.3", "noise=0.5",
        ]

    def test_k_ge_n_equals_k_eq_n(self):
        cfg = quick_config(repeats=1, epochs=2)
        n_train = int(0.7 * cfg.dataset.n)
        report = sweep(cfg, "k", [n_train, n_train + 50])
        assert report.rows[0].repeats == report.rows[1].repeats

    def test_invalid_parameter(self):
        with pytest.raises(ValidationError):
            sweep(quick_config(), "rho", [0.1])

    def test_empty_values(self):
        with pytest.raises(ValidationError):
            sweep(quick_config(), "k", [])


class TestReportFormats:
    def test_table_alignment_and_save(self, tmp_path):
        report = run_experiment(quick_config(repeats=1))
        table = report.to_table()
        lines = table.splitlines()
        assert lines[0].startswith("config")
        json_path, table_path = report.save(tmp_path)
        assert json_path.read_text() == report.to_json()
        assert table_path.read_text() == report.to_table()
