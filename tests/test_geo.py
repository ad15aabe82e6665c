import math

import numpy as np
import pytest

from hopfleet.geo import (
    GridWorld,
    InvalidZoneError,
    TravelEstimate,
    ZoneId,
    designate_hop_zones,
    hub_lattice,
    manhattan,
    nearest_zone,
    travel_ticks,
)


def make_grid(w=20, h=20, speed=1, hop_zones=()):
    return GridWorld(width=w, height=h, vehicle_speed=speed, hop_zones=frozenset(hop_zones))


def test_distance_examples():
    g = make_grid()
    assert g.distance((0, 0), (0, 0)) == 0
    assert g.distance((0, 0), (3, 4)) == 7
    assert g.distance((2, 5), (5, 2)) == 6


def test_distance_rejects_out_of_range():
    g = make_grid(w=5, h=5)
    with pytest.raises(InvalidZoneError):
        g.distance((0, 0), (5, 0))
    with pytest.raises(InvalidZoneError):
        g.distance((-1, 0), (0, 0))


def test_distance_is_a_metric():
    g = make_grid(w=8, h=8)
    rng = np.random.default_rng(1)
    zones = [ZoneId(int(r), int(c)) for r, c in rng.integers(0, 8, size=(40, 2))]
    for a in zones[:12]:
        for b in zones[12:24]:
            assert g.distance(a, b) == g.distance(b, a)
            assert (g.distance(a, b) == 0) == (a == b)
            for c in zones[24:32]:
                assert g.distance(a, c) <= g.distance(a, b) + g.distance(b, c)


def test_eta_examples():
    g2 = make_grid(speed=2)
    assert g2.eta((0, 0), (0, 4)) == TravelEstimate(ticks=2, distance=4)
    assert g2.eta((3, 3), (3, 3)) == TravelEstimate(ticks=0, distance=0)
    g3 = make_grid(speed=3)
    assert g3.eta((0, 0), (0, 7)).ticks == 3


@pytest.mark.parametrize("speed", range(1, 6))
def test_travel_ticks_is_ceil_division(speed):
    distances = range(501)
    want = [math.ceil(d / speed) for d in distances]
    assert [travel_ticks(d, speed) for d in distances] == want
    assert all(type(travel_ticks(d, speed)) is int for d in distances)
    ticks = travel_ticks(np.arange(501), speed)
    assert ticks.dtype.kind == "i" and ticks.tolist() == want


def test_eta_monotone_in_distance():
    g = make_grid(speed=2)
    prev = -1
    for col in range(0, 15):
        t = g.eta((0, 0), (0, col)).ticks
        assert t >= prev
        prev = t


def test_designate_hop_zones_stride_lattice():
    g = make_grid(w=9, h=9)
    chosen = designate_hop_zones(g, 3, np.full((9, 9), 100), radius=0, min_pickups=10)
    assert chosen == frozenset(ZoneId(r, c) for r in (0, 3, 6) for c in (0, 3, 6))
    assert g.hop_zones == chosen
    assert all(type(z) is ZoneId and type(z.row) is int for z in chosen)


def test_designate_hop_zones_threshold_filters_all():
    g = make_grid(w=9, h=9)
    assert designate_hop_zones(g, 3, np.full((9, 9), 3), radius=0, min_pickups=10) == frozenset()


def test_designate_hop_zones_candidate_count_full_scale():
    g = make_grid(w=219, h=212)
    chosen = designate_hop_zones(g, 3, np.full((212, 219), 10), radius=0, min_pickups=10)
    assert len(chosen) == math.ceil(212 / 3) * math.ceil(219 / 3)


def test_designate_hop_zones_respects_filter_exactly():
    g = make_grid(w=12, h=12)
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 20, size=(12, 12))
    chosen = designate_hop_zones(g, 3, counts, radius=0, min_pickups=10)
    lattice = {ZoneId(r, c) for r in range(0, 12, 3) for c in range(0, 12, 3)}
    assert chosen <= lattice
    for z in lattice:
        assert (z in chosen) == (counts[z] >= 10)


def test_designate_hop_zones_rejects_bad_arguments():
    g = make_grid(w=6, h=4)
    for stride, min_pickups in ((0, 1), (2, -1)):
        with pytest.raises(ValueError, match="stride must be >= 1 and min_pickups >= 0"):
            designate_hop_zones(g, stride, np.zeros((4, 6)), radius=1, min_pickups=min_pickups)


def test_hub_lattice_row_major():
    g = make_grid(w=7, h=5)
    assert hub_lattice(g, stride=3) == [ZoneId(r, c) for r in (0, 3) for c in (0, 3, 6)]
    assert hub_lattice(g, stride=1) == [ZoneId(r, c) for r in range(5) for c in range(7)]
    with pytest.raises(ValueError):
        hub_lattice(g, stride=0)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_designated_hubs_equal_the_zones_within_oracle(radius):
    # a lattice zone is a hub when its count plus those of the zones within
    # the radius reach the threshold, drawn so that some zones pass and some
    # do not
    rng = np.random.default_rng(60 + radius)
    far_edge = split = 0
    for _ in range(60):
        stride = int(rng.integers(1, 5))
        # a side of a multiple of the stride plus one puts hubs on the far edge
        g = make_grid(w=int(rng.choice([rng.integers(1, 14), 2 * stride + 1])),
                      h=int(rng.choice([rng.integers(1, 14), 3 * stride + 1])))
        counts = rng.integers(0, 9, size=(g.height, g.width)) * (rng.random((g.height, g.width)) < 0.6)
        sums = {z: int(counts[z]) + sum(int(counts[nb]) for nb in g.zones_within(z, radius))
                for z in hub_lattice(g, stride)}
        threshold = int(rng.integers(0, max(sums.values()) + 2))
        got = designate_hop_zones(g, stride, counts, radius, threshold)
        want = {z for z, total in sums.items() if total >= threshold}
        assert got == want and g.hop_zones == got, (g, stride, threshold)
        far_edge += sum(z.row == g.height - 1 or z.col == g.width - 1 for z in got)
        split += 0 < len(got) < len(sums)
    assert far_edge >= 10 and split >= 20


def test_nearest_zone_takes_the_first_of_ties():
    rng = np.random.default_rng(64)
    ties = 0
    for _ in range(300):
        stride = int(rng.integers(1, 5))
        g = make_grid(w=int(rng.integers(1, 16)), h=int(rng.integers(1, 16)))
        lattice = hub_lattice(g, stride)
        target = ZoneId(int(rng.integers(g.height)), int(rng.integers(g.width)))
        got = nearest_zone(np.array(lattice), target)
        assert type(got) is ZoneId
        assert got == min(lattice, key=lambda z: manhattan(target, z))
        best = manhattan(target, got)
        ties += sum(manhattan(target, z) == best for z in lattice) > 1
    assert ties >= 50


def test_zones_within_radius():
    g = make_grid(w=10, h=10)
    got = g.zones_within((5, 5), 2)
    assert all(0 < g.distance((5, 5), z) <= 2 for z in got)
    assert len(got) == 12  # full Manhattan diamond of radius 2 minus center
    edge = g.zones_within((0, 0), 2)
    assert all(0 < g.distance((0, 0), z) <= 2 for z in edge)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridWorld(width=0, height=3)
    with pytest.raises(ValueError):
        GridWorld(width=3, height=3, vehicle_speed=0)
    with pytest.raises(InvalidZoneError):
        GridWorld(width=3, height=3, hop_zones=frozenset({(9, 9)}))
