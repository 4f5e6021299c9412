"""Property tests for the run description's keys (:mod:`repro.harness.spec`).

* changing any field of the ``result`` view changes ``digest("result")``
  (the sampled-mode knobs only on sampled specs);
* ``replace`` resolves defaults afresh, so an implied value does not
  outlive its cause;
* changing a declared-neutral field (``warmup``, ``telemetry``) changes
  neither digest;
* the ``warm`` view reproduces the warm-store key of the previous key
  derivation bit for bit (literal digests pinned below), so warm
  snapshots keep their keys.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.checkpoint.format as ckpt_format
import repro.harness.cache as cache
from repro.core import preset
from repro.harness import MigratoryFactory, OltpFactory, RunSpec
from repro.harness.spec import MODES, NEUTRAL, SAMPLED_ONLY
from repro.workloads import MicroParams

#: every field that must move the result digest
RESULT_FIELDS = [f.name for f in dataclasses.fields(RunSpec)
                 if f.name not in NEUTRAL]

configs = st.sampled_from(["P1", "P2", "P8"]).map(preset) | st.integers(
    min_value=1, max_value=8).map(
        lambda n: dataclasses.replace(
            preset("P8"), l2=dataclasses.replace(preset("P8").l2,
                                                 size_bytes=n << 20)))
factories = (st.integers(min_value=2, max_value=500).map(
    lambda i: MigratoryFactory(MicroParams(iterations=i)))
    | st.sampled_from([0.1, 0.25, 0.5, 1.0]).map(
        lambda s: OltpFactory(scale=s)))
small = st.integers(min_value=0, max_value=4096)

FIELD_VALUES = {
    "config": configs,
    "factory": factories,
    "nodes": st.integers(min_value=1, max_value=4),
    "check": st.booleans(),
    "trace_capacity": small,
    "probe_rate": small,
    "sample_interval_ps": st.integers(min_value=0, max_value=10**9),
    "mode": st.sampled_from(MODES),
    "window": small,
    "period": small,
    "warming": st.sampled_from(["functional", "detailed"]),
    "trace_spans": small,
    "profile": small,
    "preempt_every_ps": st.integers(min_value=0, max_value=10**9),
}


def test_every_field_has_a_strategy():
    assert sorted(FIELD_VALUES) == sorted(RESULT_FIELDS)


@st.composite
def specs(draw):
    return RunSpec(**{name: draw(strategy)
                      for name, strategy in FIELD_VALUES.items()})


class TestResultDigest:
    @settings(max_examples=150)
    @given(specs(), st.sampled_from(RESULT_FIELDS), st.data())
    def test_any_result_field_changes_digest(self, spec, name, data):
        changed = spec.replace(**{name: data.draw(FIELD_VALUES[name])})
        if getattr(changed, name) == getattr(spec, name):
            return  # drew the same (effective) value: nothing changed
        if name in SAMPLED_ONLY and spec.mode == "detailed":
            # a detailed run ignores the sampled-mode knobs
            assert changed.digest("result") == spec.digest("result")
            return
        assert changed.digest("result") != spec.digest("result")

    @settings(max_examples=60)
    @given(specs(), st.sampled_from(["functional", "detailed"]), small,
           small)
    def test_detailed_key_ignores_sampled_knobs(self, spec, warming,
                                                window, period):
        detailed = spec.replace(mode="detailed")
        moved = detailed.replace(warming=warming, window=window,
                                 period=period)
        assert moved.digest("result") == detailed.digest("result")

    def test_replace_resolves_defaults_afresh(self):
        spanned = RunSpec(preset("P1"), MigratoryFactory(), trace_spans=16)
        assert spanned.probe_rate == 64
        assert spanned.replace(trace_spans=0).probe_rate == 0
        assert spanned.replace(probe_rate=8).probe_rate == 8
        sampled = RunSpec(preset("P1"), MigratoryFactory(), mode="sampled")
        assert (sampled.window, sampled.period) == (800, 6000)
        detailed = sampled.replace(mode="detailed")
        assert (detailed.window, detailed.period) == (0, 0)
        assert detailed == RunSpec(preset("P1"), MigratoryFactory())

    @settings(max_examples=60)
    @given(specs(), st.booleans(),
           st.sampled_from([None, "live.jsonl", "/tmp/other.jsonl"]))
    def test_neutral_fields_change_no_digest(self, spec, warmup, telemetry):
        moved = spec.replace(warmup=warmup, telemetry=telemetry)
        assert moved.digest("result") == spec.digest("result")
        assert moved.digest("warm") == spec.digest("warm")

    @settings(max_examples=40)
    @given(specs())
    def test_digest_is_stable(self, spec):
        assert spec.digest("result") == spec.replace().digest("result")
        assert spec.canonical_json() == spec.replace().canonical_json()

    def test_opaque_factory_has_no_digest(self):
        spec = RunSpec(preset("P1"), lambda config, nodes: None)
        assert spec.digest("result") is None
        assert spec.digest("warm") is None

    def test_unknown_view_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(preset("P1"), MigratoryFactory()).digest("dedupe")


class _Pinned:
    """A factory with a fixed token, so the literals below do not depend
    on any factory's repr."""

    cache_token = "pinned-workload"
    units_attr = "iterations"

    def __call__(self, config, num_nodes):  # pragma: no cover
        raise AssertionError("never built")


class TestWarmDigest:
    #: computed with the previous ``warm_key(config, factory, nodes,
    #: units_attr, check, trace, probe, sample, variant)`` at
    #: ``REPRO_SCALE=1.0``, with the fingerprint and Python tag pinned
    PINNED = [
        (RunSpec(preset("P2"), _Pinned(), nodes=2, check=True,
                 trace_capacity=256, probe_rate=16,
                 sample_interval_ps=5_000_000),
         "d1e052b18a37646cba8bbf455357fff938f59ff6fe58e81f4135082f045b33f4"),
        (RunSpec(preset("P2"), _Pinned(), nodes=2, check=True,
                 trace_capacity=256, probe_rate=16,
                 sample_interval_ps=5_000_000, mode="sampled"),
         "9757e1bd6e4cbcb7b3e02d0809261a3b4348cc3ea161e696431339c9c8b0765e"),
        (RunSpec(preset("P8"), _Pinned()),
         "dfe7b14aee8b29b7c155fdbb236faab1c0198a00b2da789edf78d6e414e7f508"),
    ]

    @pytest.mark.parametrize("spec,digest", PINNED,
                             ids=["detailed", "sampled", "plain"])
    def test_matches_previous_warm_key(self, spec, digest, monkeypatch):
        monkeypatch.setattr(cache, "_FINGERPRINT", "pinned-lib")
        monkeypatch.setattr(ckpt_format, "python_version_tag",
                            lambda: "pinned-python")
        monkeypatch.setattr(ckpt_format, "SCHEMA", 3)
        assert spec.digest("warm") == digest

    @settings(max_examples=60)
    @given(specs(), st.sampled_from(["trace_spans", "profile", "window",
                                     "period", "preempt_every_ps"]),
           st.data())
    def test_warm_view_ignores_observers_outside_the_snapshot(
            self, spec, name, data):
        """The warm view is exactly the previous warm-key field set: the
        flight-deck observers are re-armed after a restore, so they
        never split a warm snapshot."""
        changed = spec.replace(**{name: data.draw(FIELD_VALUES[name])})
        if changed.probe_rate != spec.probe_rate:
            return  # trace_spans moved the implied probe rate
        assert changed.digest("warm") == spec.digest("warm")
