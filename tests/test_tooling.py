import ast
import importlib.util
import runpy
import sys
from pathlib import Path

from qcompat import compatibility
from qcompat.deviceio import load_device
from qcompat.feasibility import Status

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


def test_prop1_and_the_fixtures_need_no_solve(tmp_path, monkeypatch, capsys):
    # The prop1 broadcast is built in closed form, so neither the scenario
    # nor the fixture script runs the solver.
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(compatibility, "dykstra_solve", no_solve)
    sc = compatibility.gen_parallel_only_pair(seed=7)
    assert sc.extras["broadcast"].kraus is not None
    main = runpy.run_path(str(SCRIPT))["main"]
    main.__globals__["FIXTURES"] = tmp_path
    main()
    assert (tmp_path / "prop1_giant.json").exists()


def _load_perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_build_and_warm_up(tmp_path, monkeypatch):
    # The benchmark only records warm-up errors, so a name it calls that
    # has gone (say compatibility.obs_obs_family) must fail here instead.
    workloads = _load_perfbench("workloads", monkeypatch)
    for name, make in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for step in make(1, workdir).warmup:
            step()


def test_every_benchmark_decision_agrees_with_its_oracle(tmp_path, monkeypatch):
    # A decision whose oracle disagrees counts as a failed operation in
    # the benchmark, and a traced run errors when an expected import site
    # never fires or a projection escapes a traced solve, so both must
    # fail here first.
    workloads = _load_perfbench("workloads", monkeypatch)
    tracing = _load_perfbench("tracing", monkeypatch)
    for name, make in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        decisions = make(1, workdir).decisions
        tracer = tracing.Tracer()
        tracer.install()
        try:
            failures = {d.name: d.run() for d in decisions}
        finally:
            tracer.uninstall()
        assert {k: why for k, why in failures.items() if why is not None} == {}, name
        assert tracer.missing_sites(name) == [], name
        assert tracer.escaped_calls() == [], name


def test_benchmark_trace_contract(sharp_x, sharp_z, fixtures_dir, monkeypatch):
    # perfbench/tracing.py patches solver names and requires each constraint
    # factorization to run inside a build, each projection inside a solve.
    # Sharp X/Z is certified at sweep 1; prop1 parallel is FEASIBLE after 143
    # sweeps.
    tracing = _load_perfbench("tracing", monkeypatch)
    prop1 = [load_device(fixtures_dir / f"prop1_{name}.json") for name in ("i1", "i2")]
    for check, pair in ((compatibility.check_obs_obs, (sharp_x, sharp_z)),
                        (compatibility.check_parallel, prop1)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            report = check(*pair)
        finally:
            tracer.uninstall()
        spans = tracer.spans

        def parents(name):
            return [spans[s.parent].name if s.parent is not None else None for s in spans if s.name == name]

        assert parents("feasibility.factor") == ["feasibility.build"]
        projections = parents("feasibility.project")
        assert projections == ["feasibility.dykstra_solve"] * (report.verdict.iterations + 1)
        assert tracer.escaped_calls() == []
    assert report.status is Status.FEASIBLE
    assert report.verdict.iterations > 1


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names, attributes and imported names used in ``tree`` outside ``skip``."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_src_definition_is_used_by_program_code():
    # Tests do not count: code that only tests reach belongs in tests/.  A
    # module-level function or class must be referenced from another src/
    # module, perfbench/ or scripts/, or from its own module outside its
    # own definition (which covers private helpers).
    src = sorted((ROOT / "src" / "qcompat").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in src}
    outside = set()
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        outside |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        used = outside.union(*(_referenced_names(t) for p, t in trees.items() if p != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name not in used | _referenced_names(tree, skip=node):
                    unused.append(f"{path.name}:{node.name}")
    assert unused == []
