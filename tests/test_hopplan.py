import numpy as np
import pytest

from hopfleet.demand import GOODS, PASSENGER, Request
from hopfleet.geo import GridWorld, ZoneId, manhattan
from hopfleet.hopplan import HopTrip, assign_hop_zones, eligible_hop_zone


def goods(origin, dest, rid=0):
    return Request(rid, GOODS, ZoneId(*origin), ZoneId(*dest), 0)


def test_no_hop_zones_single_leg():
    grid = GridWorld(width=12, height=12)
    trip = assign_hop_zones(goods((0, 0), (0, 10)), grid, max_depth=4)
    assert trip.legs == ((ZoneId(0, 0), ZoneId(0, 10)),)


def test_single_split_example():
    grid = GridWorld(width=12, height=12, hop_zones=frozenset({(0, 4)}))
    trip = assign_hop_zones(goods((0, 0), (0, 10)), grid, max_depth=1)
    assert trip.legs == (
        (ZoneId(0, 0), ZoneId(0, 4)),
        (ZoneId(0, 4), ZoneId(0, 10)),
    )


def test_detour_too_large_keeps_direct_leg():
    grid = GridWorld(width=12, height=12, hop_zones=frozenset({(5, 5)}))
    trip = assign_hop_zones(goods((0, 0), (0, 2)), grid, max_depth=4)
    assert trip.legs == ((ZoneId(0, 0), ZoneId(0, 2)),)


def test_max_depth_zero_is_direct():
    grid = GridWorld(width=12, height=12, hop_zones=frozenset({(0, 4)}))
    trip = assign_hop_zones(goods((0, 0), (0, 10)), grid, max_depth=0)
    assert trip.legs == ((ZoneId(0, 0), ZoneId(0, 10)),)


def test_passengers_rejected():
    grid = GridWorld(width=12, height=12)
    r = Request(0, PASSENGER, ZoneId(0, 0), ZoneId(0, 5), 0)
    with pytest.raises(ValueError):
        assign_hop_zones(r, grid, max_depth=4)


def test_recursive_split_depth_two():
    grid = GridWorld(width=20, height=20, hop_zones=frozenset({(0, 4), (0, 8), (0, 12)}))
    trip = assign_hop_zones(goods((0, 0), (0, 16)), grid, max_depth=2)
    junctions = [o for o, _ in trip.legs[1:]]
    assert all(j in grid.hop_zones for j in junctions)
    assert trip.legs[0][0] == ZoneId(0, 0)
    assert trip.legs[-1][1] == ZoneId(0, 16)


def test_chain_integrity_validation():
    with pytest.raises(ValueError):
        HopTrip(0, ((ZoneId(0, 0), ZoneId(0, 2)), (ZoneId(0, 3), ZoneId(0, 5))))


def _check_trip(grid, req, trip, max_depth):
    direct = manhattan(req.origin, req.destination)
    # chain integrity, endpoints, interior nodes are hop-zones
    assert trip.legs[0][0] == req.origin
    assert trip.legs[-1][1] == req.destination
    for (o1, d1), (o2, _) in zip(trip.legs, trip.legs[1:]):
        assert d1 == o2
        assert d1 in grid.hop_zones
    # depth cap: splitting is binary-recursive, so leg count <= 2^depth
    assert len(trip.legs) <= 2 ** max_depth
    # global bound implied by the per-split 2x rule
    assert sum(manhattan(o, d) for o, d in trip.legs) <= (2 ** max_depth) * max(direct, 1)
    # every junction must be the nearest eligible hop-zone of its parent leg,
    # confirmed by re-running an exhaustive scan at every split
    def verify(o, d, depth):
        best = None
        for hz in sorted(grid.hop_zones):
            if hz in (o, d):
                continue
            a, b = manhattan(o, hz), manhattan(hz, d)
            if a < manhattan(o, d) and b < manhattan(o, d) and a + b <= 2 * manhattan(o, d):
                if best is None or a < manhattan(o, best):
                    best = hz
        chosen = eligible_hop_zone(grid, o, d)
        assert chosen == best
        if depth <= 0 or best is None:
            return [(o, d)]
        return verify(o, best, depth - 1) + verify(best, d, depth - 1)

    assert tuple(verify(req.origin, req.destination, max_depth)) == trip.legs


def test_random_instances_against_brute_force():
    rng = np.random.default_rng(2024)
    for trial in range(500):
        n_hz = int(rng.integers(0, 6))
        hz = {ZoneId(int(r), int(c)) for r, c in rng.integers(0, 10, size=(n_hz, 2))}
        grid = GridWorld(width=10, height=10, hop_zones=frozenset(hz))
        while True:
            o = ZoneId(int(rng.integers(10)), int(rng.integers(10)))
            d = ZoneId(int(rng.integers(10)), int(rng.integers(10)))
            if o != d:
                break
        depth = int(rng.integers(0, 5))
        req = goods(o, d, rid=trial)
        trip = assign_hop_zones(req, grid, max_depth=depth)
        _check_trip(grid, req, trip, depth)


def test_termination_on_adversarial_clusters():
    # hop-zones packed around the midpoint must still terminate
    hz = {ZoneId(5, c) for c in range(3, 8)}
    grid = GridWorld(width=11, height=11, hop_zones=frozenset(hz))
    trip = assign_hop_zones(goods((5, 0), (5, 10)), grid, max_depth=8)
    assert trip.legs[0][0] == ZoneId(5, 0)
    assert trip.legs[-1][1] == ZoneId(5, 10)
    assert sum(manhattan(o, d) for o, d in trip.legs) <= 2 ** 8 * 10
