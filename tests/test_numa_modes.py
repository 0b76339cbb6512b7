"""NUMA mode/config tests."""

import pytest

from repro.numa.modes import (
    EVALUATED_CONFIGS,
    HBM_ONLY_QUAD,
    KNOWN_CONFIGS,
    QUAD_CACHE,
    QUAD_FLAT,
    SNC_CACHE,
    SNC_FLAT,
    ClusteringMode,
    MemoryMode,
    NumaConfig,
    get_config,
)


class TestLabels:
    @pytest.mark.parametrize("config,label", [
        (QUAD_CACHE, "quad_cache"),
        (QUAD_FLAT, "quad_flat"),
        (SNC_CACHE, "snc_cache"),
        (SNC_FLAT, "snc_flat"),
        (HBM_ONLY_QUAD, "quad_hbm_only"),
    ])
    def test_paper_labels(self, config, label):
        assert config.label == label

    def test_evaluated_configs_order(self):
        # quad_cache first: it is the normalization baseline of Fig. 13.
        assert EVALUATED_CONFIGS[0] is QUAD_CACHE
        assert len(EVALUATED_CONFIGS) == 4


class TestGetConfig:
    @pytest.mark.parametrize("label", ["quad_cache", "quad_flat",
                                       "snc_cache", "snc_flat"])
    def test_round_trip(self, label):
        assert get_config(label).label == label

    def test_case_insensitive(self):
        assert get_config("QUAD_FLAT") is QUAD_FLAT

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown NUMA config"):
            get_config("hemisphere_flat")

    def test_every_name_an_error_lists_parses(self):
        # get_config's own error and the numa: backend token's error list
        # the one vocabulary get_config accepts, every name of it.
        from repro.engine.backend import NumaBackend, parse_backend

        with pytest.raises(KeyError) as lookup:
            get_config("hemisphere_flat")
        listed = lookup.value.args[0].split("known: ")[1]
        lookup_names = [name.strip(" '[]") for name in listed.split(",")]
        with pytest.raises(ValueError) as token:
            parse_backend("numa:")
        listed = str(token.value).split("config one of ")[1]
        token_names = [name.strip() for name in listed.split(",")]
        assert lookup_names == token_names == [c.label for c in KNOWN_CONFIGS]
        for name in token_names:
            assert get_config(name).label == name
            assert isinstance(parse_backend(f"numa:{name}"), NumaBackend)


class TestNumaConfig:
    def test_equality_by_value(self):
        assert NumaConfig(MemoryMode.FLAT, ClusteringMode.QUADRANT) == QUAD_FLAT

    def test_hashable(self):
        assert len({QUAD_FLAT, QUAD_CACHE, QUAD_FLAT}) == 2
