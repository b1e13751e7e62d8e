import json
import subprocess
import sys

import numpy as np
import pytest

from qcompat import cli, compatibility, feasibility
from qcompat.cli import EXIT_BY_STATUS, main
from qcompat.deviceio import load_device
from qcompat.devices import Instrument
from qcompat.feasibility import Certificate, FeasibilityVerdict, Status

from conftest import FIXTURES_DIR


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCheck:
    def test_parallel_incompatible_pair(self, fixtures_dir, capsys):
        code, report = run_cli(
            ["check", "parallel", str(fixtures_dir / "prop2_p.json"), str(fixtures_dir / "prop2_q.json")],
            capsys,
        )
        assert code == 1
        assert report["status"] == "infeasible"
        assert report["iterations"] > 0
        assert EXIT_BY_STATUS[report["status"]] == code

    def test_traditional_with_witness_file(self, fixtures_dir, tmp_path, capsys):
        witness_path = tmp_path / "joint.json"
        code, report = run_cli(
            [
                "check",
                "traditional",
                str(fixtures_dir / "prop2_p.json"),
                str(fixtures_dir / "prop2_q.json"),
                "--witness-out",
                str(witness_path),
            ],
            capsys,
        )
        assert code == 0
        assert report["status"] == "feasible"
        assert report["witness_path"] == str(witness_path)

        # The joint instrument re-validates against the originals using only
        # public library calls.
        joint = load_device(witness_path)
        assert isinstance(joint, Instrument)
        p = load_device(fixtures_dir / "prop2_p.json")
        rows = {}
        for label, branch in zip(joint.outcomes, joint.branches):
            x = label.split("⊗")[0]
            rows[x] = rows.get(x, 0) + branch
        for x, branch in zip(p.outcomes, p.branches):
            assert np.linalg.norm(rows[x] - branch) <= 1e-6
        # Uniform weights over identity branches: each block is r_ij * choi(id).
        ident = load_device(fixtures_dir / "identity_channel.json")
        for label in joint.outcomes:
            assert np.linalg.norm(joint.branch(label) - 0.25 * ident.choi) <= 1e-6

    def test_weak_self_compatibility(self, fixtures_dir, capsys):
        path = str(fixtures_dir / "prop1_i1.json")
        code, report = run_cli(["check", "weak", path, path], capsys)
        assert code == 0
        assert report["status"] == "feasible"

    def test_obs_obs_from_fixtures(self, fixtures_dir, tmp_path, capsys):
        # No witness, so --witness-out leaves no file behind.
        witness = tmp_path / "w.json"
        code, report = run_cli(
            [
                "check", "obs-obs", str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json"),
                "--witness-out", str(witness),
            ],
            capsys,
        )
        assert code == 1
        assert report["status"] == "infeasible"
        assert (report["witness_path"], witness.exists()) == (None, False)

    def test_kind_mismatch_is_input_error(self, fixtures_dir, capsys):
        code, report = run_cli(
            ["check", "parallel", str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "prop2_q.json")],
            capsys,
        )
        assert code == 3
        assert report["status"] == "error"

    def test_unknown_notion_is_input_error(self, fixtures_dir, capsys):
        code, report = run_cli(
            ["check", "sideways", str(fixtures_dir / "prop2_p.json"), str(fixtures_dir / "prop2_q.json")],
            capsys,
        )
        assert code == 3

    def test_malformed_file_names_invariant(self, tmp_path, fixtures_dir, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads((fixtures_dir / "sharp_x.json").read_text())
        doc["matrices"]["+"][0][0] = [5.0, 0.0]
        bad.write_text(json.dumps(doc))
        code, report = run_cli(
            ["check", "obs-obs", str(bad), str(fixtures_dir / "sharp_z.json")], capsys
        )
        assert code == 3
        assert report["status"] == "error"
        assert report["violated_invariant"] == "observable.effects_sum_to_identity"

    def test_infeasible_report_carries_the_certificate(self, fixtures_dir, capsys):
        code, report = run_cli(
            ["check", "parallel", str(fixtures_dir / "prop2_p.json"), str(fixtures_dir / "prop2_q.json")],
            capsys,
        )
        assert code == 1
        certificate = report["certificate"]
        assert set(certificate) == {"value", "min_eig"}
        assert certificate["value"] < 0

    def test_certificate_is_null_without_a_certified_solve(self, fixtures_dir, capsys, monkeypatch):
        # Feasible; infeasible by the exact total-channel precheck; undecided
        # when no certificate is found within the sweep budget.
        prop1 = [str(fixtures_dir / f"prop1_{name}.json") for name in ("i1", "i2")]
        for notion in ("parallel", "traditional"):
            code, report = run_cli(["check", notion, *prop1], capsys)
            assert (code, report["certificate"]) == (0 if notion == "parallel" else 1, None)
        monkeypatch.setattr(feasibility.AffineConstraintSet, "certificate", lambda self, y: None)
        code, report = run_cli(
            [
                "check", "obs-obs", str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json"),
                "--max-iter", "600",
            ],
            capsys,
        )
        assert (code, report["iterations"], report["certificate"]) == (2, 600, None)

    def test_report_round_trips_through_json(self, fixtures_dir, capsys):
        code, report = run_cli(
            ["check", "obs-obs", str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json")],
            capsys,
        )
        assert json.loads(json.dumps(report)) == report


class TestNonFiniteInput:
    def nan_observable(self, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "sharp_x.json").read_text())
        doc["matrices"]["+"][0][0] = [float("nan"), 0.0]
        doc["matrices"]["-"][1][1] = [0.5, float("nan")]
        path = tmp_path / "nan_x.json"
        path.write_text(json.dumps(doc))
        return path

    def test_validate_rejects_nan(self, tmp_path, fixtures_dir, capsys):
        code, report = run_cli(["validate", str(self.nan_observable(tmp_path, fixtures_dir))], capsys)
        assert code == 3
        assert report["files"][0]["violated_invariant"] == "file.matrix_finite"

    def test_check_rejects_nan(self, tmp_path, fixtures_dir, capsys):
        bad = self.nan_observable(tmp_path, fixtures_dir)
        code, report = run_cli(["check", "obs-obs", str(bad), str(fixtures_dir / "sharp_z.json")], capsys)
        assert code == 3
        assert report["status"] == "error"
        assert report["violated_invariant"] == "file.matrix_finite"


class TestMalformedDimensions:
    """Dimension and outcome fields that are not what they claim are input errors."""

    @pytest.fixture(
        params=[
            ("in_dim", None, "file.in_dim"),
            ("in_dim", 2.7, "file.in_dim"),
            ("in_dim", True, "file.in_dim"),
            ("in_dim", 0, "file.in_dim"),
            ("in_dim", 3, "file.in_dim"),  # the effects are 2x2
            ("outcomes", 5, "file.outcomes"),
            ("outcomes", [0, 1], "file.outcomes"),
        ],
        ids=["in-null", "in-float", "in-bool", "in-zero", "in-wrong", "outcomes-int", "outcomes-ints"],
    )
    def bad_x(self, request, tmp_path, fixtures_dir):
        key, value, invariant = request.param
        doc = json.loads((fixtures_dir / "sharp_x.json").read_text())
        doc[key] = value
        path = tmp_path / "bad_x.json"
        path.write_text(json.dumps(doc))
        return path, invariant

    def test_validate(self, bad_x, capsys):
        path, invariant = bad_x
        code, report = run_cli(["validate", str(path)], capsys)
        assert code == 3
        assert report["files"][0]["violated_invariant"] == invariant

    def test_check(self, bad_x, fixtures_dir, capsys):
        path, invariant = bad_x
        code, report = run_cli(["check", "obs-obs", str(path), str(fixtures_dir / "sharp_z.json")], capsys)
        assert code == 3
        assert report["status"] == "error"
        assert report["violated_invariant"] == invariant

    @pytest.mark.parametrize("value", [None, 2.5, False])
    def test_out_dim(self, value, tmp_path, fixtures_dir, capsys):
        doc = json.loads((fixtures_dir / "identity_channel.json").read_text())
        doc["out_dim"] = value
        path = tmp_path / "bad_channel.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(["validate", str(path)], capsys)
        assert code == 3
        assert report["files"][0]["violated_invariant"] == "file.out_dim"


def test_validate_lists_good_and_bad_kraus_files(tmp_path, fixtures_dir, capsys):
    doc = json.loads((fixtures_dir / "identity_channel.json").read_text())
    doc["matrices"]["K1"] = [[[0.0, 0.0]] * 3] * 2  # a 2x3 Kraus operator beside a 2x2 one
    bad = tmp_path / "bad_kraus.json"
    bad.write_text(json.dumps(doc))
    good = str(fixtures_dir / "sharp_x.json")
    code, report = run_cli(["validate", good, str(bad)], capsys)
    assert code == 3
    assert [entry["path"] for entry in report["files"]] == [good, str(bad)]
    assert report["files"][0]["ok"]
    assert report["files"][1]["violated_invariant"] == "channel.kraus_shape"


class TestSolverError:
    """A FEASIBLE answer whose witness fails its checks, or an INFEASIBLE one
    whose certificate fails its re-check, is a solver error."""

    @pytest.fixture(params=["misses-marginals", "not-a-device", "bad-certificate"])
    def bad_witness(self, request, monkeypatch):
        if request.param == "misses-marginals":
            # A valid joint observable whose marginals are trivial, not X and Z.
            witness = [np.eye(2) / 4] * 4
        elif request.param == "not-a-device":
            witness = [np.diag([1.0, -1.0])] + [np.zeros((2, 2))] * 3
        else:
            # Re⟨λ, t⟩ = -2, but A†λ = -I: total trace 2 cancels it.
            minus = [-np.eye(2), -np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]
            certificate = Certificate(minus, -2.0, -1.0)

        def solve(cs, cfg=None):
            if request.param == "bad-certificate":
                return FeasibilityVerdict(Status.INFEASIBLE, None, 0.1, 0.0, 0.1, 1, certificate)
            return FeasibilityVerdict(Status.FEASIBLE, witness, 0.0, 0.0, 0.0, 1)

        monkeypatch.setattr(compatibility, "dykstra_solve", solve)

    def argv(self, fixtures_dir):
        return ["obs-obs", str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json")]

    def test_single_check(self, bad_witness, fixtures_dir, capsys):
        code, report = run_cli(["check", *self.argv(fixtures_dir)], capsys)
        assert code == 4
        assert report["status"] == "solver-error"
        assert EXIT_BY_STATUS[report["status"]] == code

    def test_batch_entry(self, bad_witness, fixtures_dir, tmp_path, capsys):
        notion, *devices = self.argv(fixtures_dir)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"checks": [{"notion": notion, "devices": devices}]}))
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert code == 4
        assert report["status"] == "solver-error"
        assert [r["status"] for r in report["results"]] == ["solver-error"]


class TestSolverFailureIsNotBadInput:
    # numpy's LinAlgError is a ValueError, like the input stage's errors.
    PROP1 = [str(FIXTURES_DIR / "prop1_i1.json"), str(FIXTURES_DIR / "prop1_i2.json")]
    SHARP = [str(FIXTURES_DIR / "sharp_x.json"), str(FIXTURES_DIR / "sharp_z.json")]

    @pytest.fixture(autouse=True)
    def failing_solver(self, monkeypatch):
        def solve(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(compatibility, "dykstra_solve", solve)
        monkeypatch.setattr(feasibility, "dykstra_solve", solve)

    @pytest.mark.parametrize(
        "argv",
        [["check", "parallel", *PROP1], ["robustness", "obs-obs", *SHARP], ["demo", "prop1"]],
        ids=["check", "robustness", "demo"],
    )
    def test_command(self, argv, capsys):
        code, report = run_cli(argv, capsys)
        assert (code, report["status"]) == (4, "solver-error")
        assert "LinAlgError" in report["error"]

    def test_batch_entry_fails_alone(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        entries = [{"notion": "parallel", "devices": self.PROP1}, TestMalformedBatchEntry.WEAK]
        manifest.write_text(json.dumps({"checks": entries}))
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert (code, report["status"]) == (4, "solver-error")
        assert [r["status"] for r in report["results"]] == ["solver-error", "feasible"]


@pytest.mark.parametrize(
    "kind", ["check", "batch", "robustness", "validate", "demo", "input-error", "solver-error"]
)
def test_every_document_starts_with_the_report_header(kind, tmp_path, monkeypatch, capsys):
    sharp = TestSolverFailureIsNotBadInput.SHARP
    report_out = tmp_path / "entry.json"
    entry = {**TestMalformedBatchEntry.WEAK, "report_out": str(report_out)}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checks": [entry]}))
    argv = {
        "check": ["check", "obs-obs", *sharp],
        "batch": ["check", "--batch", str(manifest)],
        "robustness": ["robustness", "obs-obs", *sharp],
        "validate": ["validate", *sharp],
        "demo": ["demo", "prop2"],
        "input-error": ["check", "obs-obs", sharp[0]],
        "solver-error": ["check", "obs-obs", *sharp],
    }[kind]
    if kind == "solver-error":
        def solve(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(compatibility, "dykstra_solve", solve)
    code, report = run_cli(argv, capsys)
    documents = [report]
    if kind == "batch":
        documents += [*report["results"], json.loads(report_out.read_text())]
    for doc in documents:
        assert list(doc)[:3] == ["schema_version", "command", "action"]
        assert doc["status"] in EXIT_BY_STATUS
    assert EXIT_BY_STATUS[report["status"]] == code
    assert report["action"] == {"input-error": "error", "solver-error": "error"}.get(kind, kind)


def test_bad_arguments_stay_input_errors(tmp_path, capsys):
    # Each would otherwise fail inside the decision: opening the trace log,
    # seeding the demo's generator.
    sharp = TestSolverFailureIsNotBadInput.SHARP
    for argv in (
        ["check", "obs-obs", *sharp, "--trace-log", str(tmp_path / "no-such-dir" / "trace.log")],
        ["demo", "prop1", "--seed", "-1"],
    ):
        code, report = run_cli(argv, capsys)
        assert (code, report["status"]) == (3, "error"), argv


class TestUnwritableOutput:
    """An output path that cannot be written is an input error found before
    any solve, not a traceback after the decision."""

    SHARP_Z = [str(FIXTURES_DIR / "sharp_z.json")] * 2

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(compatibility, "dykstra_solve", solve)

    def test_witness_out(self, tmp_path, capsys):
        witness = tmp_path / "no-such-dir" / "w.json"
        for path in (witness, tmp_path):  # a missing directory; a directory
            code, report = run_cli(["check", "obs-obs", *self.SHARP_Z, "--witness-out", str(path)], capsys)
            assert (code, report["status"]) == (3, "error")
            assert str(path) in report["error"]
        assert not witness.parent.exists()

    def test_batch_report_out_fails_alone(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        bad = {**TestMalformedBatchEntry.WEAK, "report_out": str(tmp_path / "no-such-dir" / "r.json")}
        manifest.write_text(json.dumps({"checks": [bad, TestMalformedBatchEntry.WEAK]}))
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert (code, report["status"]) == (3, "error")
        assert [r["status"] for r in report["results"]] == ["error", "feasible"]
        assert "no-such-dir" in report["results"][0]["error"]


@pytest.mark.parametrize("max_iter", ["0", "-3"])
@pytest.mark.parametrize("action", ["check", "robustness"])
def test_non_positive_max_iter_is_input_error(action, max_iter, fixtures_dir, capsys):
    # Before the check, check reported undecided and robustness blamed the family.
    sharp = [str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json")]
    code, report = run_cli([action, "obs-obs", *sharp, "--max-iter", max_iter], capsys)
    assert (code, report["status"]) == (3, "error")
    assert "max_iter" in report["error"]


class TestBatch:
    def test_manifest_entries_run_one_after_another(self, fixtures_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        manifest.write_text(
            json.dumps(
                {
                    "checks": [
                        {
                            "notion": "parallel",
                            "devices": [
                                str(fixtures_dir / "prop2_p.json"),
                                str(fixtures_dir / "prop2_q.json"),
                            ],
                            "report_out": str(out1),
                        },
                        {
                            "notion": "traditional",
                            "devices": [
                                str(fixtures_dir / "prop2_p.json"),
                                str(fixtures_dir / "prop2_q.json"),
                            ],
                            "report_out": str(out2),
                        },
                    ]
                }
            )
        )
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert code == 1  # worst individual verdict
        assert [r["status"] for r in report["results"]] == ["infeasible", "feasible"]
        assert json.loads(out1.read_text())["status"] == "infeasible"
        assert json.loads(out2.read_text())["status"] == "feasible"


class TestMalformedBatchEntry:
    WEAK = {"notion": "weak", "devices": [str(FIXTURES_DIR / "prop2_p.json")] * 2}

    @pytest.mark.parametrize(
        "bad",
        [{"devices": []}, "x", {**WEAK, "report_out": 5}],
        ids=["no-notion", "not-an-object", "report-out-not-a-path"],
    )
    def test_entry_reported_and_others_run(self, bad, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"checks": [bad, self.WEAK]}))
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert code == 3
        assert [r["status"] for r in report["results"]] == ["error", "feasible"]
        assert "notion" in report["results"][0]["error"]

    def test_checks_not_a_list(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"checks": 5}))
        code, report = run_cli(["check", "--batch", str(manifest)], capsys)
        assert code == 3
        assert report["status"] == "error"


@pytest.mark.parametrize(
    "extra",
    [["obs-obs"], ["obs-obs", "sharp_x.json", "sharp_z.json"], ["--witness-out", "w.json"]],
    ids=["notion", "devices", "witness-out"],
)
def test_batch_with_a_positional_check_is_input_error(extra, fixtures_dir, tmp_path, capsys):
    # The manifest would run alone, silently dropping the rest of the command.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"checks": [TestMalformedBatchEntry.WEAK]}))
    paths = {"sharp_x.json": fixtures_dir, "sharp_z.json": fixtures_dir, "w.json": tmp_path}
    extra = [str(paths[a] / a) if a in paths else a for a in extra]
    code, report = run_cli(["check", *extra, "--batch", str(manifest)], capsys)
    assert code == 3
    assert report["status"] == "error"
    assert "--batch" in report["error"]
    assert not (tmp_path / "w.json").exists()


class TestRobustness:
    def test_sharp_pair(self, fixtures_dir, capsys):
        code, report = run_cli(
            [
                "robustness",
                "obs-obs",
                str(fixtures_dir / "sharp_x.json"),
                str(fixtures_dir / "sharp_z.json"),
            ],
            capsys,
        )
        assert code == 0
        assert report["robustness"] == pytest.approx(1 - 1 / np.sqrt(2), abs=5e-3)

    def test_reports_the_precision_it_used(self, fixtures_dir, capsys):
        _, report = run_cli(
            [
                "robustness",
                "obs-obs",
                str(fixtures_dir / "sharp_x.json"),
                str(fixtures_dir / "sharp_z.json"),
            ],
            capsys,
        )
        assert report["precision"] == feasibility.ROBUSTNESS_PRECISION
        exact = 1 - 1 / np.sqrt(2)
        assert exact <= report["robustness"] <= exact + report["precision"]

    def test_unsupported_notion(self, fixtures_dir, capsys):
        code, _ = run_cli(
            [
                "robustness",
                "weak",
                str(fixtures_dir / "prop2_p.json"),
                str(fixtures_dir / "prop2_q.json"),
            ],
            capsys,
        )
        assert code == 3


class TestValidate:
    def test_all_fixtures_valid(self, fixtures_dir, capsys):
        files = sorted(str(p) for p in fixtures_dir.glob("*.json"))
        code, report = run_cli(["validate", *files], capsys)
        assert code == 0
        assert all(entry["ok"] for entry in report["files"])

    @pytest.mark.parametrize("defect", ["repeated-key", "extra-choi-matrix"])
    def test_file_that_would_drop_a_matrix(self, defect, tmp_path, capsys):
        if defect == "repeated-key":
            # The first "+" breaks the effect sum; json.loads would keep the second.
            text = (FIXTURES_DIR / "sharp_z.json").read_text()
            bad_plus = json.dumps([[[5.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
            text = json.dumps(json.loads(text)).replace('"matrices": {', f'"matrices": {{"+": {bad_plus}, ', 1)
            notion, other, invariant = "obs-obs", "sharp_x.json", "file.duplicate_key"
        else:
            doc = json.loads((FIXTURES_DIR / "depolarizing_channel.json").read_text())
            doc["matrices"]["extra"] = doc["matrices"]["choi"]
            text = json.dumps(doc)
            notion, other, invariant = "chan-chan", "identity_channel.json", "file.matrices"
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, report = run_cli(["validate", str(bad)], capsys)
        assert (code, report["files"][0]["violated_invariant"]) == (3, invariant)
        code, report = run_cli(["check", notion, str(bad), str(FIXTURES_DIR / other)], capsys)
        assert (code, report["violated_invariant"]) == (3, invariant)

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": "1"}))
        code, report = run_cli(["validate", str(bad)], capsys)
        assert code == 3
        assert report["files"][0]["violated_invariant"] == "file.kind"


class TestDemo:
    def test_prop2(self, capsys):
        code, report = run_cli(["demo", "prop2"], capsys)
        assert code == 0
        assert report["status"] == "ok"
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["traditional"] == "feasible"
        assert statuses["parallel"] == "infeasible"

    def test_unknown_demo(self, capsys):
        code, _ = run_cli(["demo", "nonsense"], capsys)
        assert code == 3

    def test_trace_log_written(self, fixtures_dir, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, _ = run_cli(
            [
                "check",
                "obs-obs",
                str(fixtures_dir / "sharp_x.json"),
                str(fixtures_dir / "sharp_z.json"),
                "--trace-log",
                str(trace),
            ],
            capsys,
        )
        assert code == 1
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines[1].split(",")) == 3


def test_parser_is_built_once_per_process(fixtures_dir, monkeypatch, capsys):
    builds = []
    build_parser = cli.build_parser

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    argv = ["validate", str(fixtures_dir / "sharp_x.json")]
    assert run_cli(argv, capsys)[0] == 0
    before = len(builds)
    assert run_cli(argv, capsys)[0] == 0
    assert len(builds) == before


def test_console_entry_point(fixtures_dir):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "qcompat.cli",
            "check",
            "weak",
            str(fixtures_dir / "prop2_p.json"),
            str(fixtures_dir / "prop2_p.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["status"] == "feasible"


def test_solver_flags_reach_config(fixtures_dir, capsys):
    code, report = run_cli(
        [
            "check",
            "obs-obs",
            str(fixtures_dir / "sharp_x.json"),
            str(fixtures_dir / "sharp_z.json"),
            "--max-iter",
            "600",
        ],
        capsys,
    )
    assert code == 1
    assert report["iterations"] <= 600
    # --tol-gap is not a flag: argparse rejects it as malformed input.
    sharp = [str(fixtures_dir / "sharp_x.json"), str(fixtures_dir / "sharp_z.json")]
    assert main(["check", "obs-obs", *sharp, "--tol-gap", "1e-5"]) == 3
    assert "--tol-gap" in capsys.readouterr().err


def test_non_finite_tolerance_is_input_error(fixtures_dir, capsys):
    # Before the check, inf made every residual pass: feasible after 1 sweep.
    code, report = run_cli(
        [
            "check",
            "obs-obs",
            str(fixtures_dir / "sharp_x.json"),
            str(fixtures_dir / "sharp_z.json"),
            "--tol-feas",
            "inf",
        ],
        capsys,
    )
    assert code == 3
    assert report["status"] == "error"
    assert "tol_feas" in report["error"]
