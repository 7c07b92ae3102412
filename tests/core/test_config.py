"""Unit tests for engine configuration validation."""

import dataclasses

import pytest

from repro.core.config import BlaeuConfig


class TestBlaeuConfig:
    def test_defaults_are_valid(self):
        config = BlaeuConfig()
        assert config.map_sample_size == 2000
        assert config.theme_k_values is None

    def test_frozen(self):
        config = BlaeuConfig()
        with pytest.raises(AttributeError):
            config.seed = 1  # type: ignore[misc]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"map_sample_size": 5},
            {"clara_threshold": 5},
            {"map_k_values": ()},
            {"map_k_values": (1, 2)},
            {"theme_k_values": ()},
            {"theme_k_values": (1,)},
            {"min_zoom_rows": 1},
            {"prune_leaf_factor": 0},
            {"prune_min_fidelity": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BlaeuConfig(**kwargs)

    def test_explicit_theme_k_values_accepted(self):
        config = BlaeuConfig(theme_k_values=(2, 4, 8))
        assert config.theme_k_values == (2, 4, 8)


class TestDigestMemo:
    """The digest is computed once per frozen instance, and the memo
    never leaks into what the digest, ``==`` or ``hash`` read."""

    def test_the_default_digest_holds_before_and_after_a_first_call(self):
        config = BlaeuConfig()
        assert "_digest" not in config.__dict__
        assert config.digest() == "16a753f91cf0ec48"
        assert config.__dict__["_digest"] == "16a753f91cf0ec48"
        assert config.digest() == "16a753f91cf0ec48"

    def test_replace_computes_a_fresh_digest(self):
        config = BlaeuConfig()
        config.digest()
        reseeded = dataclasses.replace(config, seed=7)
        assert reseeded.digest() != config.digest()
        assert dataclasses.replace(reseeded, seed=42).digest() == config.digest()

    def test_the_memo_is_no_field(self):
        warm, cold = BlaeuConfig(), BlaeuConfig()
        warm.digest()
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        assert "_digest" not in {field.name for field in dataclasses.fields(warm)}
