from seqbench.phases import _slices, round_robin


def test_slices_cover_every_step_once_in_order():
    for n, rounds in [(80, 10), (83, 10), (5, 10), (0, 3)]:
        parts = _slices(n, rounds)
        assert len(parts) == rounds
        assert [i for part in parts for i in part] == list(range(n))
        assert max(map(len, parts)) - min(map(len, parts)) <= 1


def _phase(log, name, rounds):
    for r in range(rounds):
        if r:
            yield
        log.append((name, r))
    return f"{name} done"


def test_round_robin_alternates_phases_and_collects_before_each_round():
    log = []
    results = round_robin({"a": _phase(log, "a", 3), "b": _phase(log, "b", 2)},
                          collect=lambda: log.append("gc"))
    assert results == {"a": "a done", "b": "b done"}
    assert log == ["gc", ("a", 0), ("b", 0), "gc", ("a", 1), ("b", 1),
                   "gc", ("a", 2)]
