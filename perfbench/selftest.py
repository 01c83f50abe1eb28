"""Self-tests of the benchmark's own arithmetic and output checks.

``run.py`` runs them before every measurement and refuses to measure when
one fails.  On their own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np


class SelfTestError(Exception):
    pass


def _expect(condition, message):
    if not condition:
        raise SelfTestError(message)


def check_tail_rank():
    from stats import tail, tail_rank

    _expect(tail(range(1, 101)) == (90, 90, 100), "tail of 1..100 is not rank 90 of 100")
    _expect(tail([5.0] * 3 + [1.0] * 8) == (1.0, 1, 11), "11 samples leave rank 1 as the tail")
    _expect(tail_rank(72) == 62, "72 samples do not give rank 62")
    try:
        tail_rank(10)
    except ValueError:
        pass
    else:
        raise SelfTestError("10 samples have no tail, yet a rank was returned")


def check_self_time():
    from stats import self_times

    # root [0, 10] holds [1, 4] and [5, 9]; [5, 9] holds [6, 8]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    parent = np.array([-1, 0, 0, 2])
    got = self_times(start, end, parent)
    _expect(np.array_equal(got, [3.0, 3.0, 2.0, 2.0]), f"self times {got.tolist()}")


def check_protocol_core_h():
    from stats import protocol_core_h

    got = protocol_core_h({("f1", "ps"): 10.0, ("f1", "de"): 30.0})
    want = 40.0 * 31 * 500_000 / 3.6e9
    _expect(abs(got - want) <= 1e-12 * want, f"protocol_core_h {got} != {want}")


def check_speed_scale():
    from stats import PROBE_WINDOW_S, REFERENCE_S, SpeedProbe
    from workloads import Round, Unit, _scaled

    # The loop ran 4x slower than the reference around the unit at t=100,
    # and 8x slower in a phase 10 s later.
    probe = SpeedProbe()
    probe.starts = [99.0, 99.5, 100.5, 110.0, 110.5]
    probe.samples = [s * REFERENCE_S for s in (2, 4, 6, 8, 8)]
    _expect(probe.scale() == 1 / 6, f"whole-round scale {probe.scale()}, not 1/6")
    unit = Unit("u", "g", None, 2.0, start=100.0 - PROBE_WINDOW_S + 0.5)
    rnd = _scaled(Round(1.0, [unit], []), probe)
    _expect(rnd.units[0].seconds == 0.5, f"2 host s next to a 4x slower loop read {unit.seconds}")


def check_corrupted_result_fails():
    """A RunResult that breaks an invariant counts as a failed unit."""
    import gnbg
    import workloads

    loop = workloads.OptimizerLoop("self-test", [1], budget=120, repeats=1)
    loop.setup(0)
    clean = loop.round()
    _expect(not clean.failures, f"clean runs failed: {clean.failures}")

    real = gnbg.run_optimizer
    corruptions = [
        lambda res: dataclasses.replace(res, fe_used=res.fe_used + 1),
        lambda res: dataclasses.replace(res, best_error=-1.0),
        lambda res: dataclasses.replace(res, best_value=res.best_value + 1.0),
        lambda res: dataclasses.replace(res, success=not res.success),
    ]
    try:
        for corrupt in corruptions:
            gnbg.run_optimizer = lambda ev, cfg, _c=corrupt: _c(real(ev, cfg))
            rnd = loop.round()
            _expect(
                len(rnd.failures) == len(rnd.units) == 3,
                f"{len(rnd.failures)} of {len(rnd.units)} corrupted runs counted as failed",
            )
    finally:
        gnbg.run_optimizer = real

    inst = loop.instances[1]
    ev = gnbg.BudgetedEvaluator(inst, 120)
    res = real(ev, gnbg.OptimizerConfig(kind="ps", seed=0))
    rising = ev.history + [(ev.fe_used, ev.history[-1][1] + 1.0)]
    _expect(workloads.check_run(inst, rising, res, 120, 1e-8), "a rising history passed")


CHECKS = [
    check_tail_rank, check_self_time, check_protocol_core_h, check_speed_scale,
    check_corrupted_result_fails,
]


def run() -> list[str]:
    """Names and messages of the checks that failed."""
    failed = []
    for check in CHECKS:
        try:
            check()
        except SelfTestError as exc:
            failed.append(f"{check.__name__}: {exc}")
    return failed


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = run()
    for line in problems:
        print(line)
    print("self-tests: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)
