"""Training plumbing: config validation, the step rule and the epoch log."""

import numpy as np
import pytest

from mzembed.errors import ConfigError, NumericsError
from mzembed.tensor import Tensor
from mzembed.training import TrainConfig, TrainLog, apply_step, make_optimizer


class TestTrainConfig:
    def test_defaults_follow_recipe(self):
        cfg = TrainConfig()
        assert cfg.lr == 5e-5
        assert cfg.weight_decay == 0.1
        assert cfg.clip == 0.5
        assert cfg.dropout == 0.1
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
            TrainConfig(dropout=1.0)
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

    def test_grads_cleared_after_step(self):
        params = self.make_param([1.0, 2.0])
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        adam = make_optimizer(params, cfg)
        loss = (params["w"] * params["w"]).sum()
        apply_step(loss, params, adam, 10.0, where="epoch 0, step 0")
        assert params["w"].grad is None or np.all(params["w"].grad == 0)


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
