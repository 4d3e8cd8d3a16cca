"""ClassifierConfig validation, hashability, and classifier round-trips."""

import time

import pytest

from repro.core.config import ClassifierConfig
from repro.core.incremental import IncrementalPCA
from repro.core.pca import PCA
from repro.core.pipeline import ApplicationClassifier
from repro.metrics.catalog import EXPERT_METRIC_NAMES

#: Every class that validates a PCA component-selection rule.
COMPONENT_RULE_OWNERS = (ClassifierConfig, PCA, IncrementalPCA)


class TestDefaults:
    def test_paper_defaults(self):
        config = ClassifierConfig()
        assert config.metric_names == EXPERT_METRIC_NAMES
        assert config.n_components == 2
        assert config.min_variance_fraction is None
        assert config.k == 3
        assert config.clock is None

    def test_selector_round_trip(self):
        config = ClassifierConfig()
        assert config.selector().names == config.metric_names


class TestValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            ClassifierConfig(metric_names=("not_a_metric",))

    def test_empty_metric_names_rejected(self):
        with pytest.raises(ValueError):
            ClassifierConfig(metric_names=())

    # The component-selection rule is one check shared by the config and
    # both PCAs, so each owner rejects the same arguments with the same
    # message.
    def test_component_selection_exclusivity(self):
        for owner in COMPONENT_RULE_OWNERS:
            for n_components, fraction in ((2, 0.9), (None, None)):
                with pytest.raises(ValueError, match="^specify exactly one of n_components / min_variance_fraction$"):
                    owner(n_components=n_components, min_variance_fraction=fraction)

    def test_bad_n_components(self):
        for owner in COMPONENT_RULE_OWNERS:
            for n_components in (0, -1):
                with pytest.raises(ValueError, match="^n_components must be >= 1$"):
                    owner(n_components=n_components, min_variance_fraction=None)

    def test_bad_variance_fraction(self):
        for owner in COMPONENT_RULE_OWNERS:
            for fraction in (0.0, -0.5, 1.5):
                with pytest.raises(ValueError, match=r"^min_variance_fraction must be in \(0, 1\]$"):
                    owner(n_components=None, min_variance_fraction=fraction)

    def test_even_or_nonpositive_k(self):
        with pytest.raises(ValueError):
            ClassifierConfig(k=2)
        with pytest.raises(ValueError):
            ClassifierConfig(k=0)


class TestHashability:
    def test_equal_configs_share_hash(self):
        assert ClassifierConfig() == ClassifierConfig()
        assert hash(ClassifierConfig()) == hash(ClassifierConfig())

    def test_usable_as_dict_key(self):
        cache = {ClassifierConfig(): "a", ClassifierConfig(k=5): "b"}
        assert cache[ClassifierConfig()] == "a"
        assert cache[ClassifierConfig(k=5)] == "b"

    def test_clock_excluded_from_equality(self):
        base = ClassifierConfig()
        clocked = base.with_clock(time.perf_counter)
        assert clocked == base
        assert hash(clocked) == hash(base)
        assert clocked.clock is time.perf_counter

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ClassifierConfig().k = 5


class TestClassifierRoundTrip:
    def test_from_config_applies_settings(self):
        config = ClassifierConfig(k=5, clock=time.perf_counter)
        clf = ApplicationClassifier.from_config(config)
        assert clf.knn.k == 5
        assert clf.clock is time.perf_counter
        assert clf.preprocessor.selector.names == config.metric_names

    def test_config_property_round_trips(self):
        config = ClassifierConfig(k=5)
        clf = ApplicationClassifier.from_config(config)
        assert clf.config is config

    def test_default_classifier_reports_default_config(self):
        assert ApplicationClassifier().config == ClassifierConfig()


class TestComputeDtype:
    def test_defaults_to_float64(self):
        assert ClassifierConfig().compute_dtype == "float64"

    def test_accepts_float32(self):
        assert ClassifierConfig(compute_dtype="float32").compute_dtype == "float32"

    def test_rejects_other_dtypes(self):
        for bad in ("float16", "f8", "double", ""):
            with pytest.raises(ValueError, match="compute_dtype"):
                ClassifierConfig(compute_dtype=bad)

    def test_participates_in_equality_and_hash(self):
        # Models fitted at different precisions must not share a cache
        # slot, so unlike the clock the dtype is part of the key.
        f64 = ClassifierConfig()
        f32 = ClassifierConfig(compute_dtype="float32")
        assert f64 != f32
        assert hash(f64) != hash(f32)
        cache = {f64: "double", f32: "single"}
        assert cache[ClassifierConfig(compute_dtype="float32")] == "single"

    def test_float32_pipeline_constructs(self):
        # The tolerance mode is live: from_config builds a float32
        # classifier whose config round-trips the dtype.
        clf = ApplicationClassifier.from_config(
            ClassifierConfig(compute_dtype="float32")
        )
        assert clf.compute_dtype == "float32"
        assert clf.config.compute_dtype == "float32"

    def test_config_property_reports_float64(self):
        assert ApplicationClassifier().config.compute_dtype == "float64"
