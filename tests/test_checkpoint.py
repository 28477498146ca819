"""Weight checkpoints: byte-exact round trips and digest enforcement."""

import numpy as np
import pytest

from mzembed.errors import CheckpointError
from mzembed.tensor import config_digest, load_checkpoint, save_checkpoint


def sample_params(rng):
    return {
        "layer0.w": rng.normal(size=(4, 3)).astype(np.float32),
        "layer0.b": rng.normal(size=(4,)).astype(np.float32),
        "scalar": np.float32(2.5).reshape(()),
    }


class TestRoundTrip:
    def test_values_and_names_survive(self, tmp_path, rng):
        params = sample_params(rng)
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, params, "cfg=1\n")
        loaded, digest = load_checkpoint(path, "cfg=1\n")
        assert set(loaded) == set(params)
        for name in params:
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], params[name])
        assert digest == config_digest("cfg=1\n")

    def test_resave_is_byte_identical(self, tmp_path, rng):
        params = sample_params(rng)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, "cfg=1\n")
        save_checkpoint(p2, params, "cfg=1\n")
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_save_round_trips_bytes(self, tmp_path, rng):
        params = sample_params(rng)
        p1 = tmp_path / "a.ckpt"
        save_checkpoint(p1, params, "cfg=1\n")
        loaded, _ = load_checkpoint(p1)
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p2, loaded, "cfg=1\n")
        assert p1.read_bytes() == p2.read_bytes()

    def test_float64_payload_is_stored_as_float32(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"x": np.array([1.0, 2.0])}, "c\n")
        loaded, _ = load_checkpoint(path)
        assert loaded["x"].dtype == np.float32


class TestDigest:
    def test_mismatch_refuses(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, sample_params(rng), "cfg=1\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, "cfg=2\n")

    def test_no_config_skips_check(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, sample_params(rng), "cfg=1\n")
        load_checkpoint(path)

    def test_digest_is_sha256_of_text(self):
        import hashlib

        assert config_digest("abc") == hashlib.sha256(b"abc").digest()


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.ckpt"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, sample_params(rng), "cfg\n")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, sample_params(rng), "cfg\n")
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestInitDigests:
    """Fresh weights of each model, saved, have pinned bytes: a reordered
    parameter table or a changed init draw order moves a digest."""

    @staticmethod
    def encoder_named(head_out=None, **kind):
        from mzembed.encoder import EncoderConfig, init_weights

        cfg = EncoderConfig(d=8, layers=2, heads=2, inner_dim=12, dropout=0.0,
                            max_fragments=16, **kind)
        return {k: v.data for k, v in init_weights(cfg, seed=7, head_out=head_out).named().items()}

    @staticmethod
    def baseline_named():
        from mzembed.encoder import init_table
        from mzembed.properties import baseline_shapes

        weights = init_table(baseline_shapes(40, 8), seed=7)
        return {k: v.data for k, v in weights.named().items()}

    @pytest.mark.parametrize("model,want", [
        ("sin", "5347c89a8502efe2b363b95acbc293f4c3b6cef61f8559a743b19c4132218537"),
        ("token", "8d42f9f66a1a55afa6986eb66f462d6e1ce62cd011b5b7a2a6d6d2acf7dd4ddb"),
        ("sin+head", "4ca0587a37d50af85cc7df1328070f6be36189684c53a45baca8e947071360cc"),
        ("baseline", "394b8adbba4f7a70615bdb8c46f93e2e36b513ec527f7e898915cdd62b84ec68"),
    ])
    def test_fresh_checkpoint_digest(self, tmp_path, model, want):
        import hashlib

        named = {
            "sin": lambda: self.encoder_named(),
            "token": lambda: self.encoder_named(kind="token", resolution=1.0, max_mz=50.0),
            "sin+head": lambda: self.encoder_named(head_out=10),
            "baseline": self.baseline_named,
        }[model]()
        path = tmp_path / "init.ckpt"
        save_checkpoint(path, named, "pinned\n")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want
