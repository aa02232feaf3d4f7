"""The ``/slice`` endpoint: parity, tiers, validation."""

from __future__ import annotations

import pytest

from repro.serve import AnalysisService, ServeConfig

SOURCE = """
int g;
int h;

void set(int *p, int v) {
    *p = v;
}

int get(int *p) {
    return *p;
}

int main(void) {
    int *q = &g;
    set(q, 5);
    h = get(q);
    return h;
}
"""

HAZARD_SOURCE = """
int g;
int main(void) {
    int *p = 0;
    if (g) p = &g;
    *p = 1;
    return 0;
}
"""

@pytest.fixture
def service(tmp_path):
    svc = AnalysisService(ServeConfig(workers=2,
                                      cache=str(tmp_path / "cache")))
    yield svc
    svc.shutdown()


@pytest.fixture
def criterion(tmp_path):
    """A ``file`` target: criterion slicing matches origins by file
    basename, so the program needs an on-disk name (POSTed source is
    spooled under a content-hash name the client cannot predict)."""
    path = tmp_path / "flow.c"
    path.write_text(SOURCE)
    return {"file": str(path), "criterion": "flow.c:10"}


def test_criterion_slice(service, criterion):
    status, payload = service.handle("slice", dict(criterion))
    assert status == 200
    sl = payload["slice"]
    assert sl["direction"] == "backward"
    assert sl["size"] > 0
    assert set(payload["node_info"]) == set(sl["nodes"])
    assert payload["graph"]["stats"]["edges"] > 0


def test_repeat_hits_the_solution_tier(service, criterion):
    _, first = service.handle("slice", dict(criterion))
    status, second = service.handle("slice", dict(criterion))
    assert status == 200
    assert second["tier"] == "solution"
    assert second["slice"]["digest"] == first["slice"]["digest"]


def test_new_criterion_reuses_the_workers_graph(tmp_path, criterion):
    """A pool worker keeps the dependence graphs it built, so a new
    criterion over a program it has sliced solves nothing — and
    answers what a fresh in-process slice does."""
    from repro.runner import Request, execute

    svc = AnalysisService(ServeConfig(workers=1,
                                      cache=str(tmp_path / "cache")))
    try:
        _, first = svc.handle("slice", dict(criterion))
        status, second = svc.handle(
            "slice", dict(criterion, criterion="flow.c:6",
                          direction="forward"))
    finally:
        svc.shutdown()
    assert first["tier"] == "cold"
    assert status == 200
    assert second["tier"] == "solution"
    fresh = execute(Request.build(
        "slice", (criterion["file"],), criterion="flow.c:6",
        direction="forward", cache=False)).payload
    for field in ("slice", "graph", "node_info"):
        assert second[field] == fresh[field]


def test_forward_direction(service, criterion):
    body = dict(criterion, direction="forward", criterion="flow.c:6")
    status, payload = service.handle("slice", body)
    assert status == 200
    assert payload["slice"]["direction"] == "forward"


def test_finding_slice_uses_hazard_lowering(service):
    status, payload = service.handle(
        "slice", {"source": HAZARD_SOURCE, "finding": "nullderef"})
    assert status == 200
    assert payload["slice"]["criterion"].startswith(
        "finding:nullderef|")


@pytest.mark.parametrize("body,fragment", [
    ({"source": SOURCE}, "criterion"),
    ({"source": SOURCE, "criterion": "x.c:10",
      "finding": "nullderef"}, None),
    ({"source": SOURCE, "criterion": "x.c:10",
      "direction": "sideways"}, "direction"),
    ({"source": SOURCE, "criterion": "x.c:999"}, "matches no"),
    ({"source": SOURCE, "finding": "nullderef"}, "no finding"),
])
def test_bad_requests_are_client_errors(service, body, fragment):
    status, payload = service.handle("slice", body)
    assert status == 400
    if fragment is not None:
        assert fragment in payload["error"]


def test_client_errors_count_one_way(service):
    """A 400 counts in ``errors`` and nowhere else, whether the
    daemon's own checks refuse the body (``direction``) or the worker
    finds that the criterion matches nothing."""
    for body in ({"source": SOURCE, "criterion": "x.c:10",
                  "direction": "up"},
                 {"source": SOURCE, "criterion": "x.c:999"}):
        status, _ = service.handle("slice", body)
        assert status == 400
    snap = service.metrics_payload()
    assert snap["errors"] == 2
    assert snap["requests"] == {}
    assert snap["latency_p50_seconds"] is None
