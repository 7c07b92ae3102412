"""The config knobs that sit beside the map build: digest and validation."""

import pytest

from repro.core.config import BlaeuConfig


class TestConfigKnobs:
    def test_config_digest_tracks_new_knobs(self):
        base = BlaeuConfig()
        assert base.digest() != BlaeuConfig(silhouette_exact_threshold=10).digest()

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            BlaeuConfig(silhouette_exact_threshold=-1)
