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
    neighborhood_counts,
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


def test_eta_monotone_in_distance():
    g = make_grid(speed=2)
    prev = -1
    for col in range(0, 15):
        t = g.eta((0, 0), (0, col)).ticks
        assert t >= prev
        prev = t


def test_designate_hop_zones_stride_lattice():
    g = make_grid(w=9, h=9)
    counts = {z: 100 for z in g.all_zones()}
    chosen = designate_hop_zones(g, stride=3, pickup_counts=counts, min_pickups=10)
    assert chosen == frozenset(ZoneId(r, c) for r in (0, 3, 6) for c in (0, 3, 6))
    assert g.hop_zones == chosen


def test_designate_hop_zones_threshold_filters_all():
    g = make_grid(w=9, h=9)
    counts = {z: 3 for z in g.all_zones()}
    assert designate_hop_zones(g, stride=3, pickup_counts=counts, min_pickups=10) == frozenset()


def test_designate_hop_zones_candidate_count_full_scale():
    g = make_grid(w=219, h=212)
    counts = {z: 10 for z in g.all_zones()}
    chosen = designate_hop_zones(g, stride=3, pickup_counts=counts, min_pickups=10)
    assert len(chosen) == math.ceil(212 / 3) * math.ceil(219 / 3)


def test_designate_hop_zones_respects_filter_exactly():
    g = make_grid(w=12, h=12)
    rng = np.random.default_rng(7)
    counts = {z: int(rng.integers(0, 20)) for z in g.all_zones()}
    chosen = designate_hop_zones(g, stride=3, pickup_counts=counts, min_pickups=10)
    lattice = {ZoneId(r, c) for r in range(0, 12, 3) for c in range(0, 12, 3)}
    assert chosen <= lattice
    for z in lattice:
        assert (z in chosen) == (counts[z] >= 10)


def test_hub_lattice_row_major():
    g = make_grid(w=7, h=5)
    assert hub_lattice(g, stride=3) == [ZoneId(r, c) for r in (0, 3) for c in (0, 3, 6)]
    assert hub_lattice(g, stride=1) == list(g.all_zones())
    with pytest.raises(ValueError):
        hub_lattice(g, stride=0)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_neighborhood_counts_equal_the_zones_within_loop(radius):
    rng = np.random.default_rng(60 + radius)
    far_edge = 0
    for _ in range(60):
        stride = int(rng.integers(1, 5))
        # a side of a multiple of the stride plus one puts hubs on the far edge
        g = make_grid(w=int(rng.choice([rng.integers(1, 14), 2 * stride + 1])),
                      h=int(rng.choice([rng.integers(1, 14), 3 * stride + 1])))
        counts = rng.integers(0, 9, size=(g.height, g.width)) * (rng.random((g.height, g.width)) < 0.6)
        got = neighborhood_counts(g, stride, counts, radius)
        want = {z: int(counts[z]) + sum(int(counts[nb]) for nb in g.zones_within(z, radius))
                for z in hub_lattice(g, stride)}
        assert list(got.items()) == list(want.items()), (g, stride)
        far_edge += sum(z.row == g.height - 1 or z.col == g.width - 1 for z in got)
    assert far_edge >= 20


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
