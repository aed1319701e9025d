"""Marks: segment times exclude the calibration snippets, and a scaled
segment uses the snippets run where it ran."""

import time

import pytest

from perfbench import marks


def work_class():
    class Work:
        def step(self):
            time.sleep(0.001)

    return Work


def test_segments_exclude_the_calibration_snippets(monkeypatch):
    monkeypatch.setattr(marks, "CALIBRATE_EVERY", 2)
    m = marks.Marks()
    work_cls = work_class()
    m.after(work_cls, "step")
    work = work_cls()
    t0 = time.perf_counter()
    start = m.mark()
    for _ in range(6):
        work.step()
    end = m.mark()
    wall = time.perf_counter() - t0
    assert len(m.snippets) == 3
    (segment,) = m.segments([(start, end)])
    assert 0.006 <= segment <= wall - sum(spent for _, spent in m.snippets)


def test_scaled_uses_the_snippets_inside_each_segment_or_the_nearest():
    m = marks.Marks()
    m.times[:] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert m.scaled([(0, 2)]) == [2.0]  # no snippet: unscaled
    ref = marks.REFERENCE_SNIPPET_S
    m.snippets[:] = [(0, ref), (1, 2 * ref), (4, 4 * ref)]
    # (0, 2) holds the snippets after marks 0 and 1: mean 1.5 ref.
    # (2, 3) holds none; the nearest is after mark 1: 2 ref.
    # (4, 5) holds the one after mark 4: 4 ref.
    assert m.scaled([(0, 2), (2, 3), (4, 5)]) == pytest.approx([2 / 1.5, 0.5, 0.25])
    assert m.segments([(0, 2), (2, 3)]) == [2.0, 1.0]


def test_uncalibrated_marks_run_no_snippet(monkeypatch):
    monkeypatch.setattr(marks, "CALIBRATE_EVERY", 1)
    m = marks.Marks(calibrate=False)
    work_cls = work_class()
    m.after(work_cls, "step")
    work_cls().step()
    assert m.snippets == [] and len(m.times) == 1
