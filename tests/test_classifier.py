import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsmooth import (
    ClassifierParams,
    LabeledDataset,
    TrainConfig,
    accuracy,
    init_params,
    input_gradient_batch,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    make_dataset,
    synthetic_dataset,
    train,
)
from wsmooth.smoothing import FLOW, PIXEL

from analytic import finite_difference_grads, per_minibatch_train


def small_params(rng, hidden=5, input_shape=(3, 3), num_classes=3):
    return init_params(input_shape, num_classes, hidden=hidden, rng=rng)


class TestParams:
    def test_rejects_mismatched_layer_chain(self):
        with pytest.raises(ValueError, match="do not chain from input width 4"):
            ClassifierParams((2, 2), [np.zeros((4, 3))], [np.zeros(2)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["weight", "bias"])
    def test_rejects_non_finite_weights_or_biases(self, bad, where):
        w, b = np.zeros((4, 2)), np.zeros(2)
        (w if where == "weight" else b)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ClassifierParams((2, 2), [w], [b])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="^num_classes must be >= 2, got 1$"):
            ClassifierParams((2, 2), [np.zeros((4, 1))], [np.zeros(1)])

    @pytest.mark.parametrize("shape, words", [
        ((2.7, 2), "input_shape[0] must be an integer, got 2.7"),
        ((-2, -2), "input_shape[0] must be >= 0, got -2"),
        ((4, True), "input_shape[1] must be an integer, got True"),
    ])
    def test_rejects_impossible_input_sides(self, shape, words):
        # (2.7, 2) used to become (2, 2), and (-2, -2) passed as 4 pixels.
        with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
            ClassifierParams(shape, [np.zeros((4, 2))], [np.zeros(2)])

    @pytest.mark.parametrize("shape, words", [((0, 3), "input_shape[0] must be >= 1, got 0"),
                                              ((3, 0), "input_shape[1] must be >= 1, got 0")])
    def test_init_params_rejects_empty_input_sides(self, shape, words):
        # Used to end in ZeroDivisionError at the 1/sqrt(fan-in) scale.
        with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
            init_params(shape, 2)

    @pytest.mark.parametrize("weights, biases", [([], []), ([np.zeros((4, 2))], [])],
                             ids=["empty", "unequal"])
    def test_rejects_layer_lists_that_are_empty_or_unequal(self, weights, biases):
        with pytest.raises(ValueError, match="^weights and biases must be nonempty lists of "
                                             "equal length$"):
            ClassifierParams((2, 2), weights, biases)

    @pytest.mark.parametrize("hidden, words", [(0, ">= 1, got 0"), (True, "an integer, got True"),
                                               (2.5, "an integer, got 2.5")])
    def test_init_params_rejects_bad_hidden_widths(self, hidden, words):
        with pytest.raises(ValueError, match=f"^hidden must be {words}$"):
            init_params((2, 2), 2, hidden=hidden)

    def test_forward_returns_the_layer_chain_logits(self, rng):
        params = small_params(rng)
        X = rng.normal(size=(7, 3, 3))
        hidden = np.maximum(X.reshape(7, -1) @ params.weights[0] + params.biases[0], 0.0)
        logits = hidden @ params.weights[1] + params.biases[1]
        assert np.array_equal(params.forward_batch(X), logits)

    def test_predicts_the_index_of_the_top_logit(self, rng):
        params = ClassifierParams((1, 2), [np.array([[1.0, 0.0], [0.0, 1.0]])], [np.zeros(2)])
        images = np.array([[[0.7, 0.3]], [[0.3, 0.7]]])
        assert accuracy(params, LabeledDataset(images, np.array([0, 1]), 2)) == 1.0
        assert accuracy(params, LabeledDataset(images, np.array([1, 0]), 2)) == 0.0

    def test_rejects_wrong_input_width(self, rng):
        params = small_params(rng)
        wide = np.zeros((2, 4, 4))
        with pytest.raises(ValueError, match="batch of width 16 fed to classifier expecting 9"):
            params.forward_batch(wide)
        for backprop in (loss_and_gradients, input_gradient_batch):
            with pytest.raises(ValueError, match="batch of width 16"):
                backprop(params, wide, np.array([0, 1]))

    def test_backprop_needs_one_label_per_row(self, rng):
        params = small_params(rng)
        for backprop in (loss_and_gradients, input_gradient_batch):
            with pytest.raises(ValueError, match="^one label per batch row required$"):
                backprop(params, np.zeros((3, 3, 3)), np.array([0, 1]))


class TestGradients:
    def test_matches_finite_differences_hidden(self, rng):
        params = small_params(rng)
        X = rng.normal(size=(4, 3, 3))
        labels = rng.integers(0, 3, size=4)
        _, grads = loss_and_gradients(params, X, labels)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = finite_difference_grads(params, X, labels)
        rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-4

    def test_matches_finite_differences_linear(self, rng):
        params = init_params((2, 2), 2, hidden=None, rng=rng)
        X = rng.normal(size=(3, 2, 2))
        labels = rng.integers(0, 2, size=3)
        _, grads = loss_and_gradients(params, X, labels)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = finite_difference_grads(params, X, labels)
        assert np.abs(analytic - fd).max() < 1e-6

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=3606)  # every hidden ReLU dead: the exact gradient is 0
    def test_random_instances_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        hidden = int(rng.integers(2, 6)) if rng.random() < 0.7 else None
        params = init_params((2, 3), 3, hidden=hidden, rng=rng)
        X = rng.normal(size=(3, 2, 3))
        labels = rng.integers(0, 3, size=3)
        _, grads = loss_and_gradients(params, X, labels)
        analytic = np.concatenate([g.ravel() for g in grads])
        fd = finite_difference_grads(params, X, labels)
        # Relative to the largest entry, plus central differences' own
        # round-off (~1e-10), which is all fd holds where the gradient is 0.
        assert np.abs(analytic - fd).max() < 1e-4 * np.abs(fd).max() + 1e-9

    def test_single_image_gradient_matches_batch(self, rng):
        # The batch loss is a mean, so its gradient is the mean of the
        # single-image gradients.
        params = small_params(rng)
        X = rng.normal(size=(4, 3, 3))
        labels = np.array([1, 0, 2, 1])
        _, grads_batch = loss_and_gradients(params, X, labels)
        singles = [loss_and_gradients(params, X[i : i + 1], labels[i : i + 1])[1] for i in range(4)]
        for k, g in enumerate(grads_batch):
            assert np.allclose(g, np.mean([s[k] for s in singles], axis=0), rtol=0, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self, rng):
        params = small_params(rng)
        X = rng.normal(size=(2, 3, 3))
        labels = np.array([0, 2])
        analytic = input_gradient_batch(params, X, labels)
        eps = 1e-6
        fd = np.empty_like(X)
        for s in range(X.shape[0]):
            for idx in np.ndindex(X.shape[1:]):
                bumped = X.copy()
                bumped[(s,) + idx] += eps
                up, _ = loss_and_gradients(params, bumped[s : s + 1], labels[s : s + 1])
                bumped[(s,) + idx] -= 2 * eps
                down, _ = loss_and_gradients(params, bumped[s : s + 1], labels[s : s + 1])
                fd[(s,) + idx] = (up - down) / (2 * eps)
        rel = np.abs(analytic - fd).max() / (np.abs(fd).max() + 1e-12)
        assert rel < 1e-4

    def test_loss_is_mean_cross_entropy(self, rng):
        params = small_params(rng)
        X = rng.normal(size=(5, 3, 3))
        labels = rng.integers(0, 3, size=5)
        loss, _ = loss_and_gradients(params, X, labels)
        logits = params.forward_batch(X)
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), labels].mean()
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_rejects_out_of_range_labels(self, rng):
        params = small_params(rng)
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 3\)$"):
            loss_and_gradients(params, rng.normal(size=(2, 3, 3)), np.array([-1, 0]))
        with pytest.raises(ValueError, match=r"^labels must lie in \[0, 3\)$"):
            loss_and_gradients(params, rng.normal(size=(2, 3, 3)), np.array([0, 3]))


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"weight_decay": -1e-3},
            {"noise": "gaussian"},
            {"sigma": -0.1},
            {"sigma": float("nan")},
            {"sigma": float("inf")},
            {"noise": "none"},
            {"epochs": 2.5},
            {"batch_size": 2.5},
            {"epochs": True},
            {"seed": -1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestTraining:
    def test_learns_separable_bars(self):
        ds = synthetic_dataset("bars", 120, shape=(5, 5), seed=7)
        cfg = TrainConfig(epochs=60, batch_size=32, learning_rate=0.1, seed=1)
        result = train(ds, cfg)
        assert accuracy(result.params, ds) == 1.0
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_same_seed_is_bit_identical(self):
        ds = synthetic_dataset("blobs", 40, seed=3)
        cfg = TrainConfig(epochs=5, batch_size=16, learning_rate=0.5,
                          noise="wasserstein_flow", sigma=0.05, seed=9)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.epoch_losses == b.epoch_losses
        for pa, pb in zip(a.params.arrays(), b.params.arrays()):
            assert np.array_equal(pa, pb)

    def test_zero_sigma_flow_matches_zero_sigma_pixel(self):
        # At sigma 0 the sampler adds zeros and leaves the noise stream
        # unconsumed, so the scheme cannot matter, with or without a hidden layer.
        ds = synthetic_dataset("blobs", 30, seed=4)
        for hidden in (None, 8):
            flow, pixel = (train(ds, TrainConfig(epochs=4, batch_size=10, learning_rate=0.5,
                                                 noise=scheme, sigma=0.0, seed=11, hidden=hidden))
                           for scheme in (FLOW, PIXEL))
            assert flow.epoch_losses == pixel.epoch_losses
            for pa, pb in zip(flow.params.arrays(), pixel.params.arrays(), strict=True):
                assert np.array_equal(pa, pb)

    def test_noise_changes_trajectory(self):
        ds = synthetic_dataset("blobs", 30, seed=4)
        calm = TrainConfig(epochs=3, batch_size=10, learning_rate=0.5, seed=2)
        noisy = TrainConfig(epochs=3, batch_size=10, learning_rate=0.5,
                            noise="laplace_pixel", sigma=0.05, seed=2)
        a = train(ds, calm)
        b = train(ds, noisy)
        assert any(
            not np.array_equal(pa, pb)
            for pa, pb in zip(a.params.arrays(), b.params.arrays())
        )

    def test_hidden_layer_trains(self):
        ds = synthetic_dataset("corners", 80, shape=(5, 5), seed=5)
        cfg = TrainConfig(epochs=80, batch_size=20, learning_rate=0.2, seed=6, hidden=12)
        result = train(ds, cfg)
        assert accuracy(result.params, ds) > 0.9

    @pytest.mark.parametrize("noise,sigma", [(FLOW, 0.05), (PIXEL, 0.05), (FLOW, 0.0)],
                             ids=["flow", "pixel", "sigma0"])
    @pytest.mark.parametrize("hidden", [None, 8], ids=["linear", "hidden8"])
    @pytest.mark.parametrize("data", ["ragged", "3ch"])
    def test_matches_per_minibatch_reference(self, noise, sigma, hidden, data):
        # Drawing an epoch's minibatch noise in one call must give the same
        # draws, and so the same params and losses, as one call per minibatch.
        if data == "ragged":  # 37 images in batches of 16, 16 and 5
            ds = synthetic_dataset("corners", 37, shape=(6, 5), seed=8)
        else:
            raw = np.random.default_rng(9).random((20, 3, 4, 4))
            ds = make_dataset(raw, np.arange(20) % 3)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.5, noise=noise,
                          sigma=sigma, seed=10, hidden=hidden)
        result = train(ds, cfg)
        params, losses = per_minibatch_train(ds, cfg)
        assert result.epoch_losses == losses
        for pa, pb in zip(result.params.arrays(), params.arrays(), strict=True):
            assert np.array_equal(pa, pb)

    def test_rejects_empty_dataset(self):
        # An empty dataset cannot be built, so train never sees one.
        ds = synthetic_dataset("blobs", 5, seed=0)
        with pytest.raises(ValueError, match=r"^images must stack nonempty .* got \(0, 6, 6\)$"):
            train(ds.subset([]), TrainConfig(epochs=1))


class TestCheckpoints:
    def test_round_trip_exact(self, rng, tmp_path):
        params = small_params(rng)
        cfg = TrainConfig(epochs=3, learning_rate=0.05, noise="laplace_pixel",
                          sigma=0.1, seed=42, hidden=5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.input_shape == params.input_shape
        assert loaded.num_classes == params.num_classes
        for a, b in zip(params.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)

    def test_rejects_unknown_version(self, rng, tmp_path):
        params = small_params(rng)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, TrainConfig(hidden=5))
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        meta = payload["meta"].item().replace('"version": 1', '"version": 99')
        payload["meta"] = np.array(meta)
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "bad.npz")

    def test_rejects_non_finite_weights(self, rng, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(path, small_params(rng), TrainConfig(hidden=5))
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        payload["w0"][0, 0] = np.nan
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError, match="must be finite"):
            load_checkpoint(tmp_path / "bad.npz")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_to_save_what_it_would_not_load(self, rng, tmp_path, bad):
        # Training updates the arrays in place, past ClassifierParams' own check.
        params = small_params(rng)
        params.biases[-1][0] = bad
        path = tmp_path / "new" / "model.npz"
        with pytest.raises(ValueError, match="^weights and biases must be finite$"):
            save_checkpoint(path, params, TrainConfig(hidden=5))
        assert not path.parent.exists()
        params.biases[-1][0] = 0.0
        save_checkpoint(path, params, TrainConfig(hidden=5))  # makes its directory
        assert load_checkpoint(path)[0].num_classes == params.num_classes

    @pytest.mark.parametrize("key, value", [("epochs", 2.5), ("batch_size", 2.5),
                                            ("epochs", True), ("seed", -1)])
    def test_rejects_config_values_train_cannot_use(self, rng, tmp_path, key, value):
        path = tmp_path / "model.npz"
        save_checkpoint(path, small_params(rng), TrainConfig(hidden=5))
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        meta = json.loads(payload["meta"].item())
        meta["config"][key] = value
        payload["meta"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "bad.npz", **payload)
        with pytest.raises(ValueError, match=key):
            load_checkpoint(tmp_path / "bad.npz")

    def test_meta_is_the_input_shape_and_config(self, rng, tmp_path):
        # The class count and depth are the arrays'.  Files that also
        # recorded num_classes and num_layers load unchanged.
        params, cfg = small_params(rng), TrainConfig(hidden=5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, cfg)
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        meta = json.loads(payload["meta"].item())
        assert set(meta) == {"version", "input_shape", "config"}
        meta.update(num_classes=3, num_layers=2)
        payload["meta"] = np.array(json.dumps(meta))
        np.savez(tmp_path / "older.npz", **payload)
        loaded, loaded_cfg = load_checkpoint(tmp_path / "older.npz")
        assert loaded_cfg == cfg and loaded.num_classes == 3
        for a, b in zip(params.arrays(), loaded.arrays(), strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("hidden", [9, None])
    def test_refuses_to_save_a_config_that_would_not_rebuild_its_params(self, rng, tmp_path,
                                                                        hidden):
        path = tmp_path / "model.npz"
        with pytest.raises(ValueError,
                           match=rf"^hidden {hidden} does not describe the hidden widths \[4\]$"):
            save_checkpoint(path, small_params(rng, hidden=4), TrainConfig(hidden=hidden))
        assert not path.exists()

    def test_refuses_a_hidden_layer_saved_without_its_width(self, rng, tmp_path):
        # Files written before TrainConfig recorded hidden hold no width.
        params = small_params(rng)
        meta = {"version": 1, "input_shape": [3, 3], "num_classes": 3, "num_layers": 2,
                "config": {"epochs": 3}}
        path = tmp_path / "model.npz"
        (w0, w1), (b0, b1) = params.weights, params.biases
        np.savez(path, meta=np.array(json.dumps(meta)), w0=w0, b0=b0, w1=w1, b1=b1)
        with pytest.raises(ValueError, match=r"^checkpoint meta does not fit: ValueError\('hidden "
                                             r"None does not describe the hidden widths \[5\]'\)$"):
            load_checkpoint(path)
