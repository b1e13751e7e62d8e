import importlib.util
import runpy
import sys
from pathlib import Path

from qcompat import compatibility

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_shipped_files(fixtures_dir, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    main.__globals__["FIXTURES"] = tmp_path
    main()
    shipped = sorted(p.name for p in fixtures_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


def test_benchmark_trace_contract(sharp_x, sharp_z, monkeypatch):
    # perfbench/tracing.py patches solver names and requires each constraint
    # factorization to run inside a build, each projection inside a solve.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = compatibility.check_obs_obs(sharp_x, sharp_z)
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def parents(name):
        return [spans[s.parent].name if s.parent is not None else None for s in spans if s.name == name]

    assert parents("feasibility.factor") == ["feasibility.build"]
    projections = parents("feasibility.project")
    assert projections == ["feasibility.dykstra_solve"] * (report.verdict.iterations + 1)
    assert tracer.escaped_calls() == []

