import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"


def test_make_fixtures_reproduces_shipped_files(fixtures_dir, tmp_path, capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    main.__globals__["FIXTURES"] = tmp_path
    main()
    shipped = sorted(p.name for p in fixtures_dir.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name
