"""Training plumbing: config validation, the step rule and the epoch log."""

import numpy as np
import pytest

from mzembed.errors import ConfigError, MzembedError, NumericsError
from mzembed.tensor import Tensor, no_grad
from mzembed.rng import stream_rng
from mzembed.training import TrainConfig, TrainLog, apply_step, fit, make_optimizer


class TestTrainConfig:
    def test_defaults_follow_recipe(self):
        cfg = TrainConfig()
        assert cfg.lr == 5e-5
        assert cfg.weight_decay == 0.1
        assert cfg.clip == 0.5
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(eval_pairs=0)

    def test_zero_epochs_allowed(self):
        assert TrainConfig(epochs=0).epochs == 0


class TestApplyStep:
    def make_param(self, value):
        return {"w": Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)}

    def test_updates_parameter_and_returns_norm(self):
        params = self.make_param([3.0, 4.0])
        cfg = TrainConfig(lr=0.1, weight_decay=0.0, clip=100.0)
        adam = make_optimizer(params, cfg)
        loss = (params["w"] * params["w"]).sum()
        before = params["w"].data.copy()
        norm = apply_step(loss, params, adam, cfg.clip, where="epoch 0, step 0")
        # Gradient of sum(w^2) is 2w, norm 2*5.
        assert np.isclose(norm, 10.0, atol=1e-12)
        assert not np.array_equal(params["w"].data, before)

    def test_clipping_bounds_the_update(self):
        params = self.make_param([300.0, 400.0])
        cfg = TrainConfig(lr=0.1, weight_decay=0.0, clip=0.5)
        adam = make_optimizer(params, cfg)
        loss = (params["w"] * params["w"]).sum()
        norm = apply_step(loss, params, adam, cfg.clip, where="epoch 0, step 0")
        assert np.isclose(norm, 1000.0, atol=1e-9)  # pre-clip norm is reported

    def test_nonfinite_loss_raises_with_position(self):
        params = self.make_param([1.0])
        adam = make_optimizer(params, TrainConfig())
        bad = Tensor(np.array(float("nan")))
        with pytest.raises(NumericsError) as err:
            apply_step(bad, params, adam, 0.5, where="epoch 7, step 3")
        message = str(err.value)
        assert "training diverged at epoch 7, step 3" in message

    def test_inf_loss_raises(self):
        params = self.make_param([1.0])
        adam = make_optimizer(params, TrainConfig())
        bad = Tensor(np.array(float("inf")))
        with pytest.raises(NumericsError):
            apply_step(bad, params, adam, 0.5, where="epoch 0, step 0")

    def test_loss_without_graph_raises_and_leaves_the_weights(self):
        # Adam on all-zero gradients would still move the weights through
        # weight decay, and the step would learn nothing.
        params = self.make_param([3.0, 4.0])
        adam = make_optimizer(params, TrainConfig(weight_decay=0.1))
        with no_grad():
            loss = (params["w"] * params["w"]).sum()
        before = params["w"].data.copy()
        with pytest.raises(MzembedError, match="recorded no graph"):
            apply_step(loss, params, adam, 0.5, where="epoch 0, step 0")
        assert np.array_equal(params["w"].data, before)
        assert adam.t == 0

    def test_grads_cleared_after_step(self):
        params = self.make_param([1.0, 2.0])
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        adam = make_optimizer(params, cfg)
        loss = (params["w"] * params["w"]).sum()
        apply_step(loss, params, adam, 10.0, where="epoch 0, step 0")
        assert params["w"].grad is None or np.all(params["w"].grad == 0)


class TestFit:
    def test_chunks_positions_and_weighted_mean(self):
        cfg = TrainConfig(epochs=2, batch_size=2, seed=5)
        seen = []

        def step(chunk, rng, where):
            seen.append((list(chunk), where, rng.random()))
            return float(len(chunk))

        log = TrainLog(columns=("epoch", "train_mse", "held", "wall_time_s"))
        fit(cfg, log, lambda epoch: list(range(5 + epoch)), step, held_out=lambda: (7.0,))
        assert [(c, w) for c, w, _ in seen[:3]] == [
            ([0, 1], "epoch 0, step 0"), ([2, 3], "epoch 0, step 1"), ([4], "epoch 0, step 2"),
        ]
        # One dropout stream per epoch, shared by its steps.
        draws = stream_rng(5, "dropout", 1).random(3)
        assert [r for _, _, r in seen[3:]] == list(draws)
        assert [row[:3] for row in log.rows] == [(0, 9 / 5, 7.0), (1, 12 / 6, 7.0)]

    def test_no_items_gives_nan(self):
        log = TrainLog(columns=("epoch", "train_mse", "wall_time_s"))
        fit(TrainConfig(epochs=1), log, lambda epoch: [], lambda *a: 1.0)
        assert np.isnan(log.rows[0][1])


class TestTrainLog:
    def test_serialize_layout(self):
        log = TrainLog(columns=("epoch", "train_mse", "wall_time_s"),
                       meta={"seed": "3", "mode": "siamese"})
        log.append(0, 0.5, 1.25)
        log.append(1, 0.25, 1.5)
        lines = log.serialize().splitlines()
        # Meta lines are sorted by key.
        assert lines[0] == "# mode=siamese"
        assert lines[1] == "# seed=3"
        assert lines[2] == "epoch\ttrain_mse\twall_time_s"
        assert lines[3] == "0\t0.5\t1.25"
        assert lines[4] == "1\t0.25\t1.5"

    def test_floats_render_shortest_round_trip(self):
        log = TrainLog(columns=("x",))
        log.append(0.1)
        assert log.serialize().splitlines()[-1] == "0.1"

    def test_row_width_enforced(self):
        log = TrainLog(columns=("a", "b"))
        with pytest.raises(ConfigError):
            log.append(1)
