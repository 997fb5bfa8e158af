"""Workload generators."""

import pytest

from repro.endpoint.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    UniformRandomTraffic,
    bit_reverse,
    random_payload,
)


def _drain(source, cycles):
    messages = []
    for cycle in range(cycles):
        message = source(cycle)
        if message is not None:
            messages.append(message)
    return messages


class TestUniformRandom:
    def test_rate_controls_volume(self):
        low = UniformRandomTraffic(16, 4, rate=0.01, seed=1)
        high = UniformRandomTraffic(16, 4, rate=0.3, seed=1)
        n_low = len(_drain(low.source_for(0), 5000))
        n_high = len(_drain(high.source_for(0), 5000))
        assert n_low < n_high
        assert 20 < n_low < 90  # ~50 expected
        assert 1300 < n_high < 1700  # ~1500 expected

    def test_destinations_cover_network(self):
        traffic = UniformRandomTraffic(16, 4, rate=0.5, seed=2)
        messages = _drain(traffic.source_for(3), 2000)
        dests = {m.dest for m in messages}
        assert dests == set(range(16)) - {3}

    def test_self_excluded_by_default(self):
        traffic = UniformRandomTraffic(8, 4, rate=1.0, seed=3)
        messages = _drain(traffic.source_for(5), 200)
        assert all(m.dest != 5 for m in messages)

    def test_payload_shape(self):
        traffic = UniformRandomTraffic(8, 4, rate=1.0, message_words=20, seed=4)
        message = traffic.source_for(0)(0)
        assert len(message.payload) == 20
        assert all(0 <= v < 16 for v in message.payload)

    def test_counts_generated(self):
        traffic = UniformRandomTraffic(8, 4, rate=1.0, seed=5)
        _drain(traffic.source_for(0), 10)
        _drain(traffic.source_for(1), 10)
        assert traffic.generated == 20

    def test_reproducible_per_seed(self):
        a = UniformRandomTraffic(16, 8, rate=0.2, seed=9)
        b = UniformRandomTraffic(16, 8, rate=0.2, seed=9)
        dests_a = [m.dest for m in _drain(a.source_for(2), 500)]
        dests_b = [m.dest for m in _drain(b.source_for(2), 500)]
        assert dests_a == dests_b


class TestHotspot:
    def test_hotspot_receives_disproportionate_traffic(self):
        traffic = HotspotTraffic(16, 4, rate=1.0, hotspot=0, fraction=0.5, seed=6)
        messages = _drain(traffic.source_for(7), 1000)
        hot = sum(1 for m in messages if m.dest == 0)
        assert hot / len(messages) > 0.4  # ~0.53 expected

    def test_fraction_one_sends_only_to_the_hotspot(self):
        traffic = HotspotTraffic(16, 4, rate=1.0, hotspot=3, fraction=1.0, seed=8)
        messages = _drain(traffic.source_for(9), 300)
        assert messages
        assert all(m.dest == 3 for m in messages)

    def test_fraction_zero_degenerates_to_uniform(self):
        traffic = HotspotTraffic(16, 4, rate=1.0, hotspot=0, fraction=0.0, seed=8)
        messages = _drain(traffic.source_for(9), 2000)
        hot = sum(1 for m in messages if m.dest == 0)
        # No concentration: the hotspot gets its uniform 1/16 share.
        assert hot / len(messages) < 0.15

    def test_hotspot_endpoint_never_sends_to_itself(self):
        traffic = HotspotTraffic(16, 4, rate=1.0, hotspot=5, fraction=1.0, seed=8)
        assert _drain(traffic.source_for(5), 300) == []


class TestPermutation:
    def test_bit_reverse_helper(self):
        assert bit_reverse(0b0001, 4) == 0b1000
        assert bit_reverse(0b1011, 4) == 0b1101
        assert bit_reverse(0, 4) == 0

    def test_bit_reverse_mapping_is_permutation(self):
        traffic = PermutationTraffic(16, 4, permutation="bit-reverse")
        assert sorted(traffic.mapping) == list(range(16))

    def test_shift_mapping(self):
        traffic = PermutationTraffic(16, 4, permutation="shift")
        assert traffic.mapping[0] == 8
        assert traffic.mapping[9] == 1

    def test_fixed_partner(self):
        traffic = PermutationTraffic(16, 4, rate=1.0, permutation="shift", seed=7)
        messages = _drain(traffic.source_for(2), 100)
        assert all(m.dest == 10 for m in messages)

    def test_explicit_permutation_validated(self):
        with pytest.raises(ValueError):
            PermutationTraffic(4, 4, permutation=[0, 0, 1, 2])

    def test_fixed_point_generates_nothing(self):
        traffic = PermutationTraffic(4, 4, rate=1.0, permutation=[0, 2, 1, 3])
        assert _drain(traffic.source_for(0), 50) == []
        assert _drain(traffic.source_for(3), 50) == []

    def test_bit_reverse_fixed_points_are_self_send_excluded(self):
        # bit_reverse leaves palindromic indices (0, 6, 9, 15 for 16
        # endpoints) mapped to themselves; those endpoints must stay
        # silent rather than self-send.
        traffic = PermutationTraffic(16, 4, rate=1.0, permutation="bit-reverse")
        for endpoint in range(16):
            messages = _drain(traffic.source_for(endpoint), 20)
            if traffic.mapping[endpoint] == endpoint:
                assert messages == []
            else:
                assert messages
                assert all(m.dest != endpoint for m in messages)


@pytest.mark.parametrize("w", [1, 4, 8, 12, 16, 20, 24])
def test_random_payload_respects_width(w):
    import random

    values = random_payload(random.Random(0), 400, w)
    assert len(values) == 400
    assert all(0 <= v < (1 << w) for v in values)
    # Regression: payload words were once drawn as 16-bit values and
    # masked, silently truncating wide datapaths and never exercising
    # the high bits.  400 draws make a value above half-range (and, for
    # w > 16, above the old 16-bit ceiling) a statistical certainty.
    assert max(values) >= (1 << (w - 1))
    if w > 16:
        assert max(values) > 0xFFFF
