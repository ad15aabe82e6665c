import json
import math

import pytest

from hopfleet.engine import EpisodeLog
from hopfleet.metrics import (
    MetricsReport,
    accept_rate,
    active_vehicle_ratio,
    build_report,
    effective_distance_ratio,
    fuel_cost_per_delivery,
    index_log,
    mean_wait,
    per_day_series,
)


def empty_log(n_vehicles=1, ticks=0, dt=1.0, tpd=1440):
    return EpisodeLog(n_vehicles=n_vehicles, dt_minutes=dt, ticks_per_day=tpd,
                      baseline="flex_hops", seed=0, ticks=ticks)


def add_request(log, rid, kind="passenger", origin=(0, 0), dest=(0, 3), tick=0,
                picked=None, delivered=None, rejected=False):
    log.add(tick, "request", request=rid, req_kind=kind, origin=origin, destination=dest,
            parent=None, urgency=1.0)
    if picked is not None:
        log.add(picked, "pickup", request=rid, parent=None, vehicle=0, zone=origin,
                wait=picked - tick)
    if delivered is not None:
        log.add(delivered, "deliver", request=rid, vehicle=0, zone=dest, leg=rid)
    if rejected:
        log.add(tick + 10, "reject", request=rid, req_kind=kind)


def add_later_leg_pickup(log, rid, tick, queued):
    """The pickup of package ``rid`` for a leg after a handoff at ``queued``:
    the log flags it by its parent, the package itself."""
    log.add(tick, "pickup", request=rid, parent=rid, vehicle=1, zone=(0, 1), wait=tick - queued)


def add_stats(log, tick, active=0, moved_total=0, moved_serving=None):
    log.add(tick, "tick_stats", active=active, moved_total=moved_total,
            moved_serving=moved_total if moved_serving is None else moved_serving,
            gap=0.0, dispatch_time=0.0, detour_delay=0.0, activations=0, hops=0,
            objective=0.0, queued=0, generated=0, assigned=0, rejected=0, reward_mean=0.0)


def test_accept_rate_examples():
    log = empty_log()
    for i in range(20):
        add_request(log, i, picked=1 if i < 19 else None, rejected=i == 19)
    assert accept_rate(index_log(log)) == pytest.approx(0.95)

    all_in = empty_log()
    for i in range(5):
        add_request(all_in, i, picked=2)
    assert accept_rate(index_log(all_in)) == 1.0

    none_in = empty_log()
    for i in range(5):
        add_request(none_in, i, rejected=True)
    assert accept_rate(index_log(none_in)) == 0.0


def test_accept_rate_overall_is_count_weighted_mean():
    log = empty_log()
    for i in range(6):
        add_request(log, i, kind="passenger", picked=1)
    for i in range(6, 10):
        add_request(log, i, kind="goods", picked=1 if i < 8 else None)
    ar_p = accept_rate(index_log(log), "passenger")
    ar_g = accept_rate(index_log(log), "goods")
    assert accept_rate(index_log(log)) == pytest.approx((6 * ar_p + 4 * ar_g) / 10)


def test_accept_rate_ignores_hop_children():
    log = empty_log()
    add_request(log, 0, kind="goods", picked=1, delivered=9)
    add_later_leg_pickup(log, 0, tick=5, queued=4)  # relay leg
    add_request(log, 1, kind="goods", tick=2)
    assert accept_rate(index_log(log), "goods") == 0.5
    assert index_log(log).requests[0]["picked"] == 1


def test_fuel_cost_examples():
    # one vehicle driving 60 minutes for one delivery: $1.00
    log = empty_log(n_vehicles=1, dt=1.0)
    add_request(log, 0, picked=1, delivered=59)
    for t in range(60):
        add_stats(log, t, active=1, moved_total=1)
    assert fuel_cost_per_delivery(index_log(log)) == pytest.approx(1.0)

    # no deliveries: undefined
    log2 = empty_log()
    add_stats(log2, 0, active=1)
    assert fuel_cost_per_delivery(index_log(log2)) is None

    # 2 vehicle-hours over 4 deliveries: $0.50
    log3 = empty_log(n_vehicles=2, dt=1.0)
    for i in range(4):
        add_request(log3, i, picked=1, delivered=50)
    for t in range(60):
        add_stats(log3, t, active=2, moved_total=2)
    assert fuel_cost_per_delivery(index_log(log3)) == pytest.approx(0.5)


def test_fuel_cost_scales_with_price():
    log = empty_log()
    add_request(log, 0, picked=1, delivered=5)
    for t in range(30):
        add_stats(log, t, active=1)
    base = fuel_cost_per_delivery(index_log(log), cost_per_gallon=2.0)
    assert fuel_cost_per_delivery(index_log(log), cost_per_gallon=6.0) == pytest.approx(3 * base)


def test_active_vehicle_ratio_examples():
    log = empty_log(n_vehicles=4)
    for t in range(10):
        add_stats(log, t, active=0)
    assert active_vehicle_ratio(index_log(log)) == 0.0

    log2 = empty_log(n_vehicles=4)
    for t in range(10):
        add_stats(log2, t, active=4)
    assert active_vehicle_ratio(index_log(log2)) == 1.0

    log3 = empty_log(n_vehicles=4)
    for t in range(10):
        add_stats(log3, t, active=2)
    assert active_vehicle_ratio(index_log(log3)) == 0.5


def test_mean_wait_examples():
    log = empty_log()
    add_request(log, 0, tick=0, picked=0)
    assert mean_wait(index_log(log)) == 0.0

    log2 = empty_log()
    add_request(log2, 0, tick=0, picked=2)
    add_request(log2, 1, tick=0, picked=4)
    add_request(log2, 2, tick=0, rejected=True)  # excluded
    add_later_leg_pickup(log2, 0, tick=6, queued=5)  # a relay leg's wait, excluded
    assert mean_wait(index_log(log2)) == pytest.approx(3.0)


def test_effective_distance_solo_direct_is_one():
    log = empty_log()
    add_request(log, 0, origin=(0, 0), dest=(0, 4), picked=0, delivered=4)
    add_stats(log, 0, active=1, moved_total=4)
    assert effective_distance_ratio(index_log(log)) == pytest.approx(1.0)


def test_effective_distance_two_leg_relay_case():
    # relay layout on a line: package C=(0,0) -> dest=(0,2) through hop B=(0,1),
    # passenger rides B -> dest. Split distances X = Y = 1.
    log = empty_log(n_vehicles=2)
    add_request(log, 0, kind="passenger", origin=(0, 1), dest=(0, 2), picked=0, delivered=2)
    add_request(log, 1, kind="goods", origin=(0, 0), dest=(0, 2), picked=0, delivered=2)
    add_stats(log, 0, active=2, moved_total=1)  # carrier drives C -> B
    add_stats(log, 1, active=2, moved_total=1)  # shared vehicle drives B -> dest
    assert effective_distance_ratio(index_log(log)) == pytest.approx(1.5)


def test_effective_distance_empty_log_undefined():
    assert effective_distance_ratio(index_log(empty_log())) is None


def test_effective_distance_dispatch_toggle():
    log = empty_log()
    add_request(log, 0, origin=(0, 0), dest=(0, 4), picked=0, delivered=4)
    add_stats(log, 0, active=1, moved_total=6, moved_serving=4)
    assert effective_distance_ratio(index_log(log), include_dispatch=True) == pytest.approx(4 / 6)
    assert effective_distance_ratio(index_log(log), include_dispatch=False) == pytest.approx(1.0)


def test_report_round_trip():
    log = empty_log(n_vehicles=2)
    add_request(log, 0, kind="passenger", picked=1, delivered=4)
    add_request(log, 1, kind="goods", origin=(1, 1), dest=(1, 4), picked=2, delivered=6)
    for t in range(10):
        add_stats(log, t, active=1, moved_total=2)
    report = build_report(log)
    assert report.accept_rate_overall == 1.0
    assert report.delivered == 2
    back = MetricsReport(**json.loads(report.to_json()))
    assert back.accept_rate_overall == report.accept_rate_overall


def test_per_day_series_buckets():
    log = empty_log(tpd=10)
    add_request(log, 0, tick=1, picked=3)
    add_request(log, 1, tick=12, picked=14)
    add_request(log, 2, tick=15, rejected=True)
    for t in range(20):
        add_stats(log, t, active=1)
    days = per_day_series(index_log(log))
    assert len(days) == 2
    assert days[0]["generated"] == 1 and days[0]["accept_rate"] == 1.0
    assert days[1]["generated"] == 2 and days[1]["accept_rate"] == 0.5
    assert days[0]["mean_wait_ticks"] == 2.0


def test_per_day_series_of_one_day_equals_episode_figures():
    log = empty_log(n_vehicles=3, tpd=10)
    add_request(log, 0, tick=0, picked=3)
    add_request(log, 1, kind="goods", tick=2, picked=7)
    add_request(log, 2, tick=4, rejected=True)
    for t in range(10):
        add_stats(log, t, active=t % 3)
    report = build_report(log)
    [day] = report.per_day
    assert day == {"day": 0, "generated": 3, "accept_rate": report.accept_rate_overall,
                   "mean_wait_ticks": report.mean_wait_ticks,
                   "active_vehicle_ratio": report.active_vehicle_ratio}
