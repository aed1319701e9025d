"""Self-time and coverage arithmetic, on synthetic and recorded spans."""

import pytest

from perfbench import spans


def dump(names, rows, forward_rows=0):
    """One thread's spans from ``(name, start, end, parent)`` rows."""
    ids = {name: i for i, name in enumerate(names)}
    return {
        "names": list(names),
        "threads": [{
            "thread": 1,
            "name": [ids[r[0]] for r in rows],
            "start": [r[1] for r in rows],
            "end": [r[2] for r in rows],
            "parent": [r[3] for r in rows],
            "req": [-1] * len(rows),
        }],
        "forward_rows": forward_rows,
    }


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert spans.union_length([(1.0, 4.0), (2.0, 3.0)]) == 3.0


def test_self_time_is_span_minus_union_of_children():
    # parent [0, 10]; children overlap each other and one runs past the
    # parent's end, so union = [1, 5] + [8, 10] = 6.
    table = spans.span_table(dump(
        ["core.train", "rl.act", "env.step"],
        [
            ("core.train", 0.0, 10.0, -1),
            ("rl.act", 1.0, 3.0, 0),
            ("env.step", 2.0, 5.0, 0),
            ("env.step", 8.0, 12.0, 0),
        ],
    ))
    row = table["core.train"]
    assert row["calls"] == 1
    assert row["total_s"] == 10.0
    assert row["self_s"] == pytest.approx(4.0)
    assert row["covered_s"] == pytest.approx(6.0)
    assert table["env.step"]["calls"] == 2
    assert table["env.step"]["total_s"] == pytest.approx(7.0)


def test_nested_same_layer_counts_total_once():
    table = spans.span_table(dump(
        ["rl.update"],
        [("rl.update", 0.0, 4.0, -1), ("rl.update", 1.0, 2.0, 0)],
    ))
    row = table["rl.update"]
    assert row["calls"] == 2
    assert row["total_s"] == 4.0
    assert row["self_s"] == pytest.approx(3.0 + 1.0)


def test_layer_metrics_coverage_and_ratios():
    metrics = spans.layer_metrics(dump(
        ["serve.handle", "serve.decode", "serve.wait", "serve.forward",
         "loop.retrain", "loop.canary", "loop.publish", "loop.step"],
        [
            ("serve.handle", 0.0, 0.010, -1),
            ("serve.decode", 0.000, 0.001, 0),
            ("serve.wait", 0.001, 0.009, 0),
            ("serve.forward", 0.002, 0.004, -1),
            ("serve.forward", 0.005, 0.006, -1),
            ("loop.retrain", 1.0, 2.0, -1),
            ("loop.retrain", 3.0, 4.0, -1),
            ("loop.canary", 2.0, 2.6, -1),
            ("loop.publish", 2.0, 2.5, 7),
            # A rollback's publish, made from the loop step, not the gate.
            ("loop.step", 5.0, 6.0, -1),
            ("loop.publish", 5.1, 5.5, 9),
        ],
        forward_rows=6,
    ))
    assert metrics["serve.handle.covered_frac"] == pytest.approx(0.9)
    assert metrics["serve.handle.self_ms"] == pytest.approx(1.0)
    assert metrics["serve.forward.rows_per_call"] == 3.0
    assert metrics["loop.canary.accept_ratio"] == 0.5
    assert metrics["loop.publish.calls"] == 2.0
    # Layers that never ran report zeros, so every metric is present.
    assert metrics["core.train.calls"] == 0.0
    assert metrics["core.train.covered_frac"] == 0.0
    for base in spans.BASES:
        for suffix in ("calls", "total_ms", "self_ms"):
            assert f"{base}.{suffix}" in metrics


def test_tracer_records_parents_threads_and_request_ids():
    tracer = spans.Tracer()

    def decode(line):
        return {"id": 42}

    decode = tracer.wrap("serve.decode", decode, spans._tag_decoded)
    inner = tracer.wrap("serve.wait", lambda: None)

    def handle(line):
        decode(line)
        inner()

    handle = tracer.wrap("serve.handle", handle)
    handle(b"{}")
    out = tracer.dump()
    (thread,) = out["threads"]
    names = [out["names"][i] for i in thread["name"]]
    assert names == ["serve.handle", "serve.decode", "serve.wait"]
    assert thread["parent"] == [-1, 0, 0]
    assert thread["req"] == [42, 42, 42]
    assert all(e >= s for s, e in zip(thread["start"], thread["end"]))
    table = spans.span_table(out)
    assert table["serve.handle"]["self_s"] <= table["serve.handle"]["total_s"]


def test_install_wraps_every_layer_and_keeps_results():
    import importlib

    from repro.rl.gae import compute_gae

    saved = []
    for _, module, path in spans.LAYERS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        saved.append((owner, attr, getattr(owner, attr)))
    tracer = spans.Tracer()
    try:
        assert spans.install(tracer) == len(spans.LAYERS)
        from repro.rl import ppo

        rewards, values, dones = [1.0, 0.5], [0.1, 0.2], [0.0, 1.0]
        expected = compute_gae(rewards, values, dones, 0.0)
        got = ppo.compute_gae(rewards, values, dones, 0.0)
        assert all((a == b).all() for a, b in zip(expected, got))
        assert tracer.dump()["names"] == list(spans.BASES)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
