import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dknn import trainer as trainer_mod
from dknn.exceptions import CorruptArtifactError
from dknn.features import FeaturizerConfig, fit_featurizer, take_rows
from dknn.harness import Dataset
from dknn.model import (
    LLConfig,
    ModelParams,
    _live_block,
    batch_loss_and_gradients,
    checkpoint_bytes,
    checkpoint_fingerprint,
    classify,
    column_map,
    encode,
    load_checkpoint,
    model_fingerprint,
    params_from_bytes,
    save_checkpoint,
)
from dknn.rng import Rng
from dknn.trainer import TrainConfig
from oracles import (
    contrastive_grad_m,
    contrastive_loss,
    csr_rows,
    dense_loss_and_gradients,
    densify,
    label_attention,
    label_similarity,
    scaled_label_matrix,
    soft_target,
    total_loss,
)


def random_params(rng: Rng, f: int, d: int, c: int, scale: float = 0.5) -> ModelParams:
    return ModelParams(
        w1=rng.normals(f * d).reshape(f, d) * scale,
        b1=rng.normals(d) * scale,
        w2=rng.normals(d * c).reshape(d, c) * scale,
        b2=rng.normals(c) * scale,
        label_emb=rng.normals(c * d).reshape(c, d) * scale,
    )


class TestEncode:
    def test_zero_input_zero_bias(self):
        params = random_params(Rng(0), 3, 2, 2)
        params.b1 = np.zeros(2)
        np.testing.assert_allclose(encode(np.zeros(3), params), np.zeros(2), atol=0)

    def test_range_is_open_unit(self):
        params = random_params(Rng(1), 5, 4, 3)
        h = encode(Rng(2).normals(5), params)
        assert np.all(np.abs(h) < 1.0)

    def test_saturated_range_clamped_to_unit(self):
        params = random_params(Rng(1), 5, 4, 3, scale=50.0)
        h = encode(Rng(2).normals(5) * 10, params)
        assert np.all(np.abs(h) <= 1.0)

    def test_identity_weights(self):
        params = ModelParams(
            w1=np.eye(2), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2),
            label_emb=np.zeros((2, 2)),
        )
        np.testing.assert_allclose(
            encode(np.array([1.0, 0.0]), params), [math.tanh(1.0), 0.0], atol=0
        )

    def test_shape_mismatch(self):
        params = random_params(Rng(3), 4, 2, 2)
        with pytest.raises(ValueError):
            encode(np.zeros(5), params)


class TestClassify:
    def test_zero_head_uniform(self):
        params = random_params(Rng(4), 3, 2, 4)
        params.w2 = np.zeros((2, 4))
        params.b2 = np.zeros(4)
        np.testing.assert_allclose(classify(np.ones(2), params), np.full(4, 0.25))

    def test_bias_shift_invariance(self):
        params = random_params(Rng(5), 3, 2, 3)
        h = Rng(6).normals(2)
        p1 = classify(h, params)
        params.b2 = params.b2 + 7.5
        p2 = classify(h, params)
        assert np.abs(p1 - p2).max() <= 1e-12

    def test_ln2_logit(self):
        params = ModelParams(
            w1=np.zeros((1, 1)), b1=np.zeros(1),
            w2=np.array([[math.log(2.0), 0.0]]), b2=np.zeros(2),
            label_emb=np.zeros((2, 1)),
        )
        np.testing.assert_allclose(
            classify(np.array([1.0]), params), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )


class TestLabelAttention:
    def test_zero_embedding_uniform(self):
        lbl = Rng(7).normals(6).reshape(3, 2)
        np.testing.assert_allclose(
            label_attention(np.zeros(2), lbl), np.full(3, 1.0 / 3.0)
        )

    def test_single_class(self):
        lbl = np.array([[0.3, -0.4]])
        np.testing.assert_allclose(label_attention(np.ones(2), lbl), [1.0])

    def test_orthonormal_rows_alignment(self):
        lbl = np.eye(3)
        alpha = label_attention(10.0 * lbl[0], lbl)
        assert alpha[0] > 0.99

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            label_attention(np.zeros(3), np.zeros((2, 2)))


class TestScaledLabelMatrix:
    def test_uniform_alpha_scales_by_c(self):
        lbl = Rng(8).normals(8).reshape(4, 2)
        out = scaled_label_matrix(np.full(4, 0.25), lbl)
        np.testing.assert_allclose(out, lbl / 4.0, atol=0)

    def test_onehot_alpha(self):
        lbl = Rng(9).normals(6).reshape(3, 2)
        out = scaled_label_matrix(np.array([0.0, 1.0, 0.0]), lbl)
        assert np.array_equal(out[1], lbl[1])
        assert np.all(out[[0, 2]] == 0.0)

    def test_half_identity(self):
        out = scaled_label_matrix(np.array([0.5, 0.5]), np.eye(2))
        np.testing.assert_allclose(out, 0.5 * np.eye(2), atol=0)


class TestLabelSimilarity:
    def test_identity(self):
        np.testing.assert_allclose(label_similarity(np.eye(3)), np.eye(3), atol=0)

    def test_exact_symmetry_random(self):
        rng = Rng(10)
        for _ in range(50):
            lp = rng.normals(20).reshape(5, 4)
            m = label_similarity(lp)
            assert np.abs(m - m.T).max() == 0.0
            assert np.all(np.diag(m) >= 0.0)

    def test_worked_example(self):
        m = label_similarity(np.array([[1.0, 0.0], [1.0, 1.0]]))
        np.testing.assert_allclose(m, [[1.0, 1.0], [1.0, 2.0]], atol=0)


class TestContrastiveLoss:
    def test_identity_margin_one(self):
        assert contrastive_loss(np.eye(3), 1.0) == 0.0

    def test_all_zeros(self):
        assert contrastive_loss(np.zeros((4, 4)), 0.5) == pytest.approx(0.5)

    def test_two_class_example(self):
        m = np.array([[1.0, 0.8], [0.8, 1.0]])
        assert contrastive_loss(m, 0.5) == pytest.approx(0.3)

    def test_single_class_is_zero(self):
        assert contrastive_loss(np.array([[2.0]]), 0.5) == 0.0

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.eye(2), 1.5)

    def test_subgradient_entries(self):
        # away from kinks: off-diagonal slope is kappa when active, 0 inactive
        m = np.array([[1.0, 0.8, -0.9], [0.8, 1.0, 0.2], [-0.9, 0.2, 0.5]])
        rho = 0.5
        grad = contrastive_grad_m(m, rho)
        kappa = 1.0 / 6.0
        hinge = rho - np.diag(m)[:, None] + m
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                expected = kappa if hinge[i, j] > 0 else 0.0
                assert grad[i, j] == expected
        # finite-difference agreement on off-diagonal entries
        for i, j in ((0, 1), (1, 2), (0, 2)):
            h = 1e-6
            mp = m.copy(); mp[i, j] += h
            mm = m.copy(); mm[i, j] -= h
            fd = (contrastive_loss(mp, rho) - contrastive_loss(mm, rho)) / (2 * h)
            assert abs(fd - grad[i, j]) < 1e-9


class TestSoftTarget:
    def test_uniform_row(self):
        m = np.zeros((3, 3))
        np.testing.assert_allclose(soft_target(m, 1), np.full(3, 1.0 / 3.0))

    def test_identity_row(self):
        q = soft_target(np.eye(2), 0)
        e = math.e
        np.testing.assert_allclose(q, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-15)

    def test_single_class(self):
        np.testing.assert_allclose(soft_target(np.array([[0.7]]), 0), [1.0])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            soft_target(np.eye(2), 2)


# Golden fixture: values computed once with an independent scalar (math-only)
# implementation of the same formulas and frozen here.
_FIXTURE = dict(
    w1=[[0.5, -0.25], [0.1, 0.3]],
    b1=[0.05, -0.1],
    w2=[[0.4, -0.2], [-0.3, 0.6]],
    b2=[0.01, -0.02],
    label_emb=[[0.7, -0.5], [-0.1, 0.2]],
    x=[0.8, -0.6],
    y=1,
    rho=0.5,
    ce=1.0729716462405545,
    kl=0.06021874190048199,
    cl=0.3028367850160576,
    total=1.4360271731570942,
)


def _fixture_params() -> ModelParams:
    return ModelParams(
        w1=np.array(_FIXTURE["w1"]),
        b1=np.array(_FIXTURE["b1"]),
        w2=np.array(_FIXTURE["w2"]),
        b2=np.array(_FIXTURE["b2"]),
        label_emb=np.array(_FIXTURE["label_emb"]),
    )


class TestTotalLoss:
    def test_golden_fixture(self):
        cfg = LLConfig(rho=_FIXTURE["rho"])
        out = total_loss(np.array(_FIXTURE["x"]), _FIXTURE["y"], _fixture_params(), cfg)
        assert out.ce == pytest.approx(_FIXTURE["ce"], abs=1e-12)
        assert out.kl == pytest.approx(_FIXTURE["kl"], abs=1e-12)
        assert out.cl == pytest.approx(_FIXTURE["cl"], abs=1e-12)
        assert out.total == pytest.approx(_FIXTURE["total"], abs=1e-12)

    def test_flags_off_reduce_to_ce(self):
        cfg = LLConfig(enable_kl=False, enable_cl=False)
        out = total_loss(np.array(_FIXTURE["x"]), 0, _fixture_params(), cfg)
        assert out.kl == 0.0 and out.cl == 0.0
        assert out.total == out.ce

    def test_total_is_exact_component_sum(self):
        rng = Rng(11)
        for _ in range(50):
            params = random_params(rng, 6, 4, 3)
            x = rng.normals(6)
            y = rng.bounded(3)
            out = total_loss(x, y, params, LLConfig())
            assert out.total == out.ce + out.kl + out.cl
            assert out.ce >= -1e-9 and out.kl >= -1e-9 and out.cl >= -1e-9

    def test_batch_mean_matches_single_examples(self):
        rng = Rng(12)
        params = random_params(rng, 6, 4, 3)
        x = rng.normals(30).reshape(5, 6)
        y = np.array([rng.bounded(3) for _ in range(5)])
        cfg = LLConfig()
        batch, _ = batch_loss_and_gradients(csr_rows(x), y, params, cfg)
        singles = [total_loss(x[i], int(y[i]), params, cfg) for i in range(5)]
        assert batch.ce == pytest.approx(np.mean([s.ce for s in singles]), abs=1e-12)
        assert batch.kl == pytest.approx(np.mean([s.kl for s in singles]), abs=1e-12)
        assert batch.cl == pytest.approx(np.mean([s.cl for s in singles]), abs=1e-12)



def random_rows(rng: Rng, f: int, lengths: list[int]):
    """CSR rows with ``lengths[i]`` distinct ascending columns in [0, f)."""
    cols = [np.sort(rng.permutation(f)[:n]) for n in lengths]
    row_ptr = np.concatenate([[0], np.cumsum([len(c) for c in cols])]).astype(np.int64)
    flat = np.concatenate(cols + [np.zeros(0, dtype=np.int64)])
    return row_ptr, flat, rng.normals(len(flat)) * 0.5 + 1.0


@st.composite
def csr_batches(draw):
    """``(n_cols, rows)``: CSR rows over [0, n_cols) with any number of
    entries per row (empty rows and repeated columns included)."""
    n_cols = draw(st.one_of(st.integers(1, 8), st.integers(1, 1 << 16)))
    entries = draw(st.lists(st.lists(st.integers(0, n_cols - 1), max_size=12),
                            min_size=1, max_size=20))
    if draw(st.booleans()):
        entries = [[] for _ in entries]
    row_ptr = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in entries], out=row_ptr[1:])
    cols = np.array([c for e in entries for c in e], dtype=np.int64)
    return n_cols, (row_ptr, cols, np.ones(len(cols)))


class TestColumnMap:
    @settings(max_examples=300, deadline=None)
    @given(batch=csr_batches(), cut=st.integers(0, 20))
    def test_equals_np_unique(self, batch, cut):
        """On a whole CSR and on a batch sliced from an offset row_ptr, as a
        step takes it, the map is np.unique with return_inverse."""
        n_cols, (row_ptr, cols, vals) = batch
        first = min(cut, len(row_ptr) - 2)
        lo = row_ptr[first]
        for part in (cols, cols[lo:]):
            used, compact = column_map(part, n_cols)
            want_used, want_compact = np.unique(part, return_inverse=True)
            assert np.array_equal(used, want_used)
            assert np.array_equal(compact, want_compact)
            assert np.array_equal(used[compact], part)
        live, _ = _live_block((row_ptr[first:], cols, vals), n_cols)
        assert np.array_equal(live, np.unique(cols[lo:]))

    @pytest.mark.parametrize("bad", [-1, 5, 6, -(1 << 40)])
    def test_column_outside_the_range_raises(self, bad):
        cols = np.array([0, 4, bad, 2])
        with pytest.raises(ValueError, match=r"feature column outside \[0, 5\)"):
            column_map(cols, 5)
        params = random_params(Rng(5), 5, 3, 2)
        rows = (np.array([0, 2, 4]), cols, np.ones(4))
        with pytest.raises(ValueError, match=r"feature column outside \[0, 5\)"):
            batch_loss_and_gradients(rows, np.array([0, 1]), params, LLConfig())


class TestLiveColumnStep:
    @settings(max_examples=60, deadline=None)
    @given(
        f=st.sampled_from([64, 512, 4096]),
        d=st.sampled_from([8, 64]),
        c=st.sampled_from([1, 2, 5]),
        lengths=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        all_empty=st.booleans(),
        cut=st.integers(0, 40),
        kl=st.booleans(),
        cl=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dense_step(self, f, d, c, lengths, all_empty, cut, kl, cl, seed):
        """A batch sliced from shuffled rows, as train takes it: its compact
        block scattered back is densify of those rows, bit for bit, loss and
        whole gradients equal the dense step to 1e-12, and dW1 is +0.0 on
        every column the batch leaves out. A batch of empty rows has no live
        column, so z1 is b1 alone."""
        rng = Rng(seed)
        if all_empty:
            lengths = [0] * len(lengths)
        rows = random_rows(rng, f, lengths)
        order = rng.permutation(len(lengths))
        row_ptr, cols, vals = take_rows(rows, order)
        lo = min(cut, len(lengths) - 1)
        batch = (row_ptr[lo:], cols, vals)
        x = densify(take_rows(rows, order[lo:]), f)

        live, block = _live_block(batch, f)
        scattered = np.zeros_like(x)
        scattered[:, live] = block
        assert np.array_equal(scattered, x)
        assert np.array_equal(np.signbit(scattered), np.signbit(x))

        params = random_params(rng, f, d, c)
        y = np.array([rng.bounded(c) for _ in range(len(x))])
        cfg = LLConfig(enable_kl=kl, enable_cl=cl)
        got, step = batch_loss_and_gradients(batch, y, params, cfg)
        want, ref = dense_loss_and_gradients(x, y, params, cfg)
        for name in ("ce", "kl", "cl", "total", "active_hinge_fraction"):
            assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
        for name, tensor in step.tensors().items():
            expected = ref.tensors()[name]
            assert tensor.shape == expected.shape, name
            assert np.all(np.abs(tensor - expected) <= 1e-12 * (1.0 + np.abs(expected))), name
        dead = ~x.any(axis=0)
        assert not step.w1[dead].any() and not np.signbit(step.w1[dead]).any()
        if all_empty:
            assert got == want  # z1 = b1 on both sides

    def test_a_step_allocates_nothing_feature_wide(self, monkeypatch):
        """At F = 2^16 an (F, d) float64 array is 16 MiB. train draws w1 at
        full F, then trains over the U columns its training set uses: the
        epoch loop after init_params (loss, gradients and Adam over a few
        sparse batches) must peak far below that, and Adam must hold U rows
        of w1."""
        f, d = 1 << 16, 32
        rng = Rng(3)
        texts = [" ".join(f"w{rng.bounded(100_000)}" for _ in range(20)) for _ in range(64)]
        ds = Dataset(texts=texts, labels=[i % 4 for i in range(64)],
                     label_names=["a", "b", "c", "d"])
        feat = fit_featurizer([], FeaturizerConfig(dim=f))
        draw, adam = trainer_mod.init_params, trainer_mod.adam_step
        w1_shapes = []

        def init_then_trace(*args):
            params = draw(*args)
            tracemalloc.start()
            return params

        def recording_adam(params, grads, state, config):
            w1_shapes.append(state.m["w1"].shape)
            adam(params, grads, state, config)

        monkeypatch.setattr(trainer_mod, "init_params", init_then_trace)
        monkeypatch.setattr(trainer_mod, "adam_step", recording_adam)
        try:
            params, history = trainer_mod.train(
                ds, None, feat, TrainConfig(batch_size=16, epochs=2, embed_dim=d, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < f * d * 8 // 8
        used = np.unique(feat.transform_rows(texts)[1])
        assert 0 < len(used) <= 64 * 20
        assert w1_shapes == [(len(used), d)] * 8
        assert params.w1.shape == (f, d)
        assert all(np.isfinite(rec.total) for rec in history)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = random_params(Rng(14), 7, 3, 4)
        path = tmp_path / "model.dknm"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        save_checkpoint(loaded, tmp_path / "model2.dknm")
        assert path.read_bytes() == (tmp_path / "model2.dknm").read_bytes()
        assert model_fingerprint(loaded) == model_fingerprint(loaded)

    def test_header_fields(self):
        params = random_params(Rng(15), 7, 3, 4)
        blob = checkpoint_bytes(params)
        assert blob[:4] == b"DKNM"
        expected = 18 + 4 * (7 * 3 + 3 + 3 * 4 + 4 + 4 * 3)
        assert len(blob) == expected

    def test_bad_magic(self):
        params = random_params(Rng(16), 2, 2, 2)
        blob = b"XXXX" + checkpoint_bytes(params)[4:]
        with pytest.raises(CorruptArtifactError):
            params_from_bytes(blob)

    def test_truncated(self):
        blob = checkpoint_bytes(random_params(Rng(17), 2, 2, 2))
        with pytest.raises(CorruptArtifactError):
            params_from_bytes(blob[:-3])

    def test_checkpoint_bytes_round_trip_signed_zeros_and_subnormals(self):
        """checkpoint_bytes(params_from_bytes(blob)) == blob, so the digest
        of the bytes read is the fingerprint of the params they load to."""
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        specials = np.array([0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, 3 * tiny,
                             float(np.finfo(np.float32).tiny), 3.4e38, -1.5])
        for seed in range(4):
            params = random_params(Rng(40 + seed), 6, 3, 5)
            for arr in params.tensors().values():
                flat = arr.reshape(-1)
                flat[:len(specials)] = specials[:len(flat)]
            blob = checkpoint_bytes(params)
            loaded = params_from_bytes(blob)
            assert np.signbit(loaded.w1.reshape(-1)[1]) and loaded.w1.reshape(-1)[2] == tiny
            assert checkpoint_bytes(loaded) == blob
            assert checkpoint_fingerprint(blob) == model_fingerprint(loaded)

    def test_fingerprint_tracks_content(self):
        params = random_params(Rng(18), 2, 2, 2)
        fp1 = model_fingerprint(params)
        params.w1[0, 0] += 1.0
        assert model_fingerprint(params) != fp1
