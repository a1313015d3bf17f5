import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from permlin import matio
from permlin.cli import main
from permlin.perms import Permutation, cycle_decomposition
from permlin.spectral import eigen_multiplicities

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "permlin" / "schemas"


def validate(name, payload):
    from referencing import Registry, Resource

    resources = []
    schemas = {}
    for f in SCHEMA_DIR.glob("*.schema.json"):
        obj = json.loads(f.read_text())
        schemas[obj["$id"]] = obj
        resources.append((obj["$id"], Resource.from_contents(obj)))
    validator = jsonschema.Draft202012Validator(
        schemas[f"{name}.schema.json"], registry=Registry().with_resources(resources))
    validator.validate(payload)


def run_cli(args, out_path=None):
    rc = main(args)
    if out_path is not None:
        return rc, json.loads(Path(out_path).read_text())
    return rc, None


class TestMatio:
    def test_csv_json_round_trip_bit_exact(self, tmp_path):
        m = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.875]])
        csv = tmp_path / "m.csv"
        js = tmp_path / "m.json"
        matio.write_matrix_csv(csv, m)
        back = matio.read_matrix(csv)
        matio.write_matrix_json(js, back)
        again = matio.read_matrix(js)
        assert np.array_equal(m, back) and np.array_equal(back, again)

    def test_complex_entries(self, tmp_path):
        m = np.array([[1 + 2j, -0.5j], [3.0 + 0j, -1 - 1j]])
        f = tmp_path / "z.csv"
        matio.write_matrix_csv(f, m)
        assert np.array_equal(matio.read_matrix(f), m)

    def test_complex_token_forms(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("1+2i,-i,i,2i,-3.5\n")
        row = matio.read_matrix(f)[0]
        assert np.array_equal(row, [1 + 2j, -1j, 1j, 2j, -3.5 + 0j])


class TestAnalyze:
    def test_rotation_report(self, tmp_path):
        out = tmp_path / "a.json"
        rc, payload = run_cli(["analyze", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--out", str(out)], out)
        assert rc == 0
        assert payload["commutant_dimension"] == 21
        assert payload["d_table"] == {"1": 3, "2": 2, "4": 2}
        validate("analyze", payload)

    def test_identity_dimension(self, tmp_path, capsys):
        rc, _ = run_cli(["analyze", "--perm", "", "--n", "4"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["commutant_dimension"] == 16
        validate("analyze", payload)

    def test_multi_generator(self, tmp_path):
        out = tmp_path / "a.json"
        rc, payload = run_cli(["analyze", "--perm", "(1 4 3 2)(5 8 7 6)",
                               "--perm", "(1 2)(3 4)(6 8)", "--n", "9",
                               "--out", str(out)], out)
        assert rc == 0
        assert payload["commutant_dimension"] == 15
        validate("analyze", payload)


class TestCount:
    def test_real_rotation(self, capsys):
        rc, _ = run_cli(["count", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--rank", "3", "--field", "real"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_cycle_type_mnist(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        rc, payload = run_cli(["count", "--cycle-type", "28x28", "--rank", "99",
                               "--field", "real", "--out", str(out)], out)
        assert rc == 0
        assert payload["count"] == "72425986088826"
        validate("count", payload)


class TestComponents:
    def test_real_rotation_list(self, tmp_path):
        out = tmp_path / "c.json"
        rc, payload = run_cli(["components", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--rank", "3", "--field", "real", "--out", str(out)], out)
        assert rc == 0
        assert [c["rank_vector"] for c in payload["components"]] == [
            [3, 0, 0], [2, 1, 0], [1, 2, 0], [1, 0, 1], [0, 1, 1]]
        assert [c["dimension"] for c in payload["components"]] == [9, 11, 9, 11, 9]
        validate("components", payload)

    def test_complex_has_degrees(self, tmp_path):
        out = tmp_path / "c.json"
        rc, payload = run_cli(["components", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--rank", "3", "--field", "complex", "--out", str(out)], out)
        assert rc == 0
        assert len(payload["components"]) == 17
        assert all("degree" in c for c in payload["components"])
        validate("components", payload)

    def test_count_only(self, capsys):
        rc, _ = run_cli(["components", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--rank", "3", "--field", "complex", "--count-only"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "17"

    def test_limit_exceeded_exit_code(self, capsys):
        rc, _ = run_cli(["components", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--rank", "3", "--field", "complex", "--limit", "5"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SearchLimitError"
        validate("error", err)


class TestProjectFitFactorize:
    def test_project_equivariant(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((9, 9))
        mfile = tmp_path / "m.csv"
        matio.write_matrix_csv(mfile, m)
        out = tmp_path / "p.json"
        rc, payload = run_cli(["project", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--mode", "equivariant", "--matrix", str(mfile),
                               "--out", str(out)], out)
        assert rc == 0
        proj = matio.matrix_from_json_obj(payload["matrix"])
        from permlin.equivariant import is_equivariant
        from permlin.perms import parse_permutation

        assert is_equivariant(np.asarray(proj, dtype=float),
                              parse_permutation("(1 4 3 2)(5 8 7 6)", 9), tol=1e-10)
        validate("project", payload)

    def test_fit_equivariant_and_schema(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        matio.write_matrix_csv(xf, x)
        matio.write_matrix_csv(yf, y)
        out = tmp_path / "fit.json"
        rc, payload = run_cli(["fit", "--mode", "equivariant",
                               "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--rank", "3", "--x", str(xf), "--y", str(yf),
                               "--candidates", "--out", str(out)], out)
        assert rc == 0
        assert payload["component_source"] == "search"
        assert len(payload["candidates"]) == 5
        validate("fit", payload)

    @pytest.mark.parametrize("rank", ["-1", "10"])
    def test_fit_rank_outside_census(self, tmp_path, capsys, rank):
        rng = np.random.default_rng(2)
        xf = tmp_path / "x.csv"
        matio.write_matrix_csv(xf, rng.standard_normal((9, 20)))
        rc, _ = run_cli(["fit", "--mode", "equivariant", "--perm", "(1 4 3 2)(5 8 7 6)",
                         "--n", "9", "--rank", rank, "--x", str(xf), "--y", str(xf)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ComponentError"
        validate("error", err)

    def test_project_invariant(self, tmp_path):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 5))
        mfile = tmp_path / "m.csv"
        matio.write_matrix_csv(mfile, m)
        out = tmp_path / "p.json"
        rc, payload = run_cli(["project", "--perm", "(1 3 4)(2 5)", "--n", "5",
                               "--mode", "invariant", "--matrix", str(mfile),
                               "--out", str(out)], out)
        assert rc == 0
        proj = np.asarray(matio.matrix_from_json_obj(payload["matrix"]), dtype=float)
        assert np.allclose(proj[:, 0], proj[:, 2]) and np.allclose(proj[:, 0], proj[:, 3])
        validate("project", payload)

    def test_fit_named_component_and_heuristic(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        matio.write_matrix_csv(xf, x)
        matio.write_matrix_csv(yf, y)
        out = tmp_path / "fit.json"
        base = ["fit", "--mode", "equivariant", "--perm", "(1 4 3 2)(5 8 7 6)",
                "--n", "9", "--rank", "3", "--x", str(xf), "--y", str(yf),
                "--out", str(out)]
        rc, payload = run_cli(base + ["--component", "1,0,1"], out)
        assert rc == 0 and payload["component"] == [1, 0, 1]
        rc, payload = run_cli(base + ["--heuristic", "energy"], out)
        assert rc == 0 and payload["component_source"] == "heuristic"
        validate("fit", payload)

    def test_fit_invariant(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 15))
        y = rng.standard_normal((4, 15))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        matio.write_matrix_csv(xf, x)
        matio.write_matrix_csv(yf, y)
        out = tmp_path / "fit.json"
        rc, payload = run_cli(["fit", "--mode", "invariant",
                               "--perm", "(1 3 4)(2 5)", "--n", "5",
                               "--rank", "2", "--x", str(xf), "--y", str(yf),
                               "--out", str(out)], out)
        assert rc == 0
        assert payload["component"] == "invariant"
        assert "compact_factor" in payload
        validate("fit", payload)

    def test_factorize_equivariant_deterministic(self, tmp_path):
        args = ["factorize", "--mode", "equivariant",
                "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                "--component", "1,0,1", "--seed", "7"]
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        rc1, _ = run_cli(args + ["--out", str(out1)], out1)
        rc2, _ = run_cli(args + ["--out", str(out2)], out2)
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["free_parameters"] == 2 * (3 * 1) + 2 * (2 * 2 * 1)
        validate("factorize", payload)

    def test_factorize_invariant(self, tmp_path):
        rng = np.random.default_rng(3)
        from permlin.invariant import invariant_space, psi_expand

        space = invariant_space([__import__("permlin").parse_permutation("(1 3 4)(2 5)", 5)], 4, 5, 2)
        m = psi_expand(rng.standard_normal((4, 2)), space.partition)
        mfile = tmp_path / "m.csv"
        matio.write_matrix_csv(mfile, m)
        out = tmp_path / "f.json"
        rc, payload = run_cli(["factorize", "--mode", "invariant",
                               "--perm", "(1 3 4)(2 5)", "--n", "5",
                               "--rank", "2", "--matrix", str(mfile),
                               "--out", str(out)], out)
        assert rc == 0
        validate("factorize", payload)


class TestVerifyDemo:
    def test_verify_ok(self, tmp_path):
        out = tmp_path / "v.json"
        rc, payload = run_cli(["verify", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--rank", "3", "--out", str(out)], out)
        assert rc == 0
        assert payload["ok"] is True
        names = {c["check"] for c in payload["checks"]}
        assert {"commutant_dimension", "component_count_complex",
                "component_count_real", "rank_bounded_fit_vs_als"} <= names
        validate("verify", payload)

    def test_verify_checks_equivariant_fit_against_projection_oracle(self, tmp_path):
        for perm, n in [("(1 4 3 2)(5 8 7 6)", 9), ("(1 2 3 4 5 6 7)(8 9 10)(11 12)", 12)]:
            out = tmp_path / "v.json"
            rc, payload = run_cli(["verify", "--perm", perm, "--n", str(n),
                                   "--rank", "4", "--out", str(out)], out)
            assert rc == 0
            checks = {c["check"]: c for c in payload["checks"]}
            assert checks["equivariant_fit_vs_projection_oracle"]["ok"] is True
            validate("verify", payload)

    def test_verify_checks_base_change_block_form(self, tmp_path):
        out = tmp_path / "v.json"
        for args, n in ((["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"], 9),
                        (["--cycle-type", "2x3,1x4,1x1"], 11)):
            rc, payload = run_cli(["verify", *args, "--rank", "3", "--out", str(out)], out)
            assert rc == 0
            validate("verify", payload)
            check = {c["check"]: c for c in payload["checks"]}["base_change_block_form"]
            assert check["ok"] is True and check["oracle"] == 0.0
            assert 0.0 <= check["fast"] <= 1e-9 * n

    def test_verify_checks_component_search_against_enumeration(self, tmp_path):
        out = tmp_path / "v.json"
        for args in (["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9", "--rank", "3"],
                     ["--cycle-type", "2x8", "--rank", "6"]):
            rc, payload = run_cli(["verify", *args, "--out", str(out)], out)
            assert rc == 0
            checks = {c["check"]: c for c in payload["checks"]}
            check = checks["component_search_vs_enumeration"]
            assert check["ok"] is True and check["fast"] == check["oracle"]
            validate("verify", payload)
        # a single 40-cycle is above the size cap of the check, whether its
        # census is small (2 components at rank 1) or large (184,756 at rank 20)
        for rank in ("1", "20"):
            rc, payload = run_cli(["verify", "--cycle-type", "1x40", "--rank", rank,
                                   "--out", str(out)], out)
            assert rc == 0
            assert "component_search_vs_enumeration" not in {c["check"] for c in payload["checks"]}

    def test_demo_shift_small(self, tmp_path):
        out = tmp_path / "d.json"
        rc, payload = run_cli(["demo-shift", "--height", "8", "--width", "8",
                               "--samples", "200", "--rank", "12", "--seed", "0",
                               "--out", str(out)], out)
        assert rc == 0
        losses = payload["losses_per_pixel"]
        assert losses["dense"] <= losses["equivariant_energy"] + 1e-12
        validate("demo_shift", payload)

    def test_cyclic_only_for_count(self, capsys):
        rc, _ = run_cli(["count", "--perm", "(1 2)", "--perm", "(2 3)", "--n", "3",
                         "--rank", "1", "--field", "real"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CyclicOnlyError"
        validate("error", err)

    def test_factorize_matrix_component_mismatch(self, tmp_path, capsys):
        from permlin.equivariant import make_rank_vector, parameterize_component
        from permlin.perms import cycle_decomposition, parse_permutation
        from permlin.spectral import eigen_multiplicities

        rot = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
        spec = eigen_multiplicities(cycle_decomposition(rot))
        par = parameterize_component(make_rank_vector(spec, "real", (3, 0, 0)), rot,
                                     rng=np.random.default_rng(0))
        mfile = tmp_path / "m.csv"
        matio.write_matrix_csv(mfile, par.decoder @ par.encoder)
        rc, _ = run_cli(["factorize", "--mode", "equivariant",
                         "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--component", "1,0,1", "--matrix", str(mfile)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "component" in err["message"]

    def test_ragged_csv_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1,2\n3\n")
        from permlin.errors import SizeMismatchError

        with pytest.raises(SizeMismatchError):
            matio.read_matrix(f)

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--perm", "(1 2)", "--n", "2"])  # missing --rank
        assert exc.value.code == 2

    def test_entry_point_installed(self):
        res = subprocess.run([sys.executable, "-m", "permlin.cli", "count",
                              "--cycle-type", "2x4", "--rank", "2", "--field", "real"],
                             capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.strip().isdigit()


class TestNonFiniteAndFailures:
    """Every failure exits 1 with a schema-valid JSON error, never a traceback
    or NaN in the output."""

    ROT = ["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"]

    def expect_error(self, capsys, args, name):
        rc, _ = run_cli(args)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == name
        validate("error", err)

    def write_data(self, tmp_path, bad=None):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        matio.write_matrix_csv(xf, x)
        matio.write_matrix_csv(yf, y)
        if bad is not None:
            lines = xf.read_text().splitlines()
            lines[4] = ",".join([bad] + lines[4].split(",")[1:])
            xf.write_text("\n".join(lines) + "\n")
        return xf, yf

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_read_matrix_rejects_non_finite_csv(self, tmp_path, token):
        from permlin.errors import NonFiniteError

        f = tmp_path / "m.csv"
        f.write_text(f"1,2\n{token},4\n")
        with pytest.raises(NonFiniteError):
            matio.read_matrix(f)

    def test_read_matrix_rejects_non_finite_json(self, tmp_path):
        from permlin.errors import NonFiniteError

        f = tmp_path / "m.json"
        f.write_text('{"rows": 1, "cols": 2, "data": [1.0, NaN]}')
        with pytest.raises(NonFiniteError):
            matio.read_matrix(f)

    @pytest.mark.parametrize("mode", ["equivariant", "invariant"])
    def test_project_nan_matrix(self, tmp_path, capsys, mode):
        f = tmp_path / "m.csv"
        f.write_text("\n".join(",".join(["nan" if (i, j) == (2, 3) else "1.5"
                                          for j in range(9)]) for i in range(9)) + "\n")
        self.expect_error(capsys, ["project", *self.ROT, "--mode", mode,
                                   "--matrix", str(f)], "NonFiniteError")

    @pytest.mark.parametrize("mode", ["equivariant", "invariant"])
    def test_fit_nan_data(self, tmp_path, capsys, mode):
        xf, yf = self.write_data(tmp_path, bad="nan")
        self.expect_error(capsys, ["fit", *self.ROT, "--mode", mode, "--rank", "3",
                                   "--x", str(xf), "--y", str(yf)], "NonFiniteError")

    def test_fit_lapack_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        xf, yf = self.write_data(tmp_path)
        self.expect_error(capsys, ["fit", *self.ROT, "--mode", "equivariant", "--rank", "3",
                                   "--x", str(xf), "--y", str(yf)], "ConvergenceError")

    def test_non_finite_output_is_an_error(self, tmp_path, capsys, monkeypatch):
        import permlin.cli as cli

        monkeypatch.setattr(cli.equivariant, "equivariant_project",
                            lambda m, gens: np.full_like(m, np.nan))
        f = tmp_path / "m.csv"
        matio.write_matrix_csv(f, np.eye(9))
        self.expect_error(capsys, ["project", *self.ROT, "--mode", "equivariant",
                                   "--matrix", str(f)], "NonFiniteError")


# ---------------------------------------------------------------------------
# the CLI contract: every subcommand, on any input, exits 0 with output valid
# under its schema or exits 1 with a valid JSON error, never a traceback

SCHEMA_OF = {"analyze": "analyze", "count": "count", "components": "components",
             "project": "project", "fit": "fit", "factorize": "factorize",
             "verify": "verify", "demo-shift": "demo_shift"}
INPUTS = ("good", "good", "nan", "wrong_shape", "empty")


def write_input(path, kind, shape, rng):
    """A CSV matrix of the given shape, or a malformed one of the given kind."""
    if kind == "empty":
        path.write_text("")
        return str(path)
    rows, cols = (shape[0] + 1, shape[1] + 2) if kind == "wrong_shape" else shape
    m = rng.standard_normal((rows, cols))
    if kind == "nan":
        m[rng.integers(rows), rng.integers(cols)] = np.nan
    matio.write_matrix_csv(path, m)
    return str(path)


@st.composite
def cli_invocations(draw):
    """One subcommand on a random permutation (n <= 12) and random inputs."""
    n = draw(st.integers(1, 12))
    gens = [draw(st.permutations(range(1, n + 1))) for _ in range(draw(st.sampled_from([1, 1, 1, 2])))]
    command = draw(st.sampled_from(sorted(SCHEMA_OF)))
    blocks = len(eigen_multiplicities(cycle_decomposition(Permutation(n, tuple(gens[0])))).real_blocks)
    component = draw(st.one_of(
        st.none(), st.just("1,x"),
        st.lists(st.integers(0, 2), min_size=blocks, max_size=blocks + 1).map(
            lambda v: ",".join(map(str, v)))))
    return {
        "command": command, "n": n, "gens": gens, "component": component,
        "mode": draw(st.sampled_from(["invariant", "equivariant"])),
        "field": draw(st.sampled_from(["real", "complex"])),
        "input": draw(st.sampled_from(INPUTS)),
        "rank": draw(st.integers(-1, n + 2)),
        "rows": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "image": (draw(st.sampled_from([0, 1, 2, 3, 3])), draw(st.integers(1, 4)),
                  draw(st.sampled_from([0, 40, 60]))),
    }


def cli_argv(run, workdir):
    """permlin arguments for one drawn invocation; inputs written to workdir."""
    rng = np.random.default_rng(run["seed"])
    n, mode, command = run["n"], run["mode"], run["command"]
    rows = n if mode == "equivariant" else run["rows"]
    perm = []
    for image in run["gens"]:
        perm += ["--perm", " ".join(map(str, image))]
    perm += ["--n", str(n)]
    rank = ["--rank", str(run["rank"])]
    component = [] if run["component"] is None else ["--component", run["component"]]
    if command == "analyze":
        return ["analyze", *perm]
    if command in ("count", "components"):
        return [command, *perm, *rank, "--field", run["field"]]
    if command == "project":
        return ["project", *perm, "--mode", mode,
                "--matrix", write_input(workdir / "m.csv", run["input"], (rows, n), rng)]
    if command == "fit":
        d = n + 3
        x = write_input(workdir / "x.csv", run["input"], (n, d), rng)
        y = write_input(workdir / "y.csv", "good", (rows, d), rng)
        return ["fit", *perm, "--mode", mode, *rank, "--x", x, "--y", y,
                *(component if mode == "equivariant" else [])]
    if command == "factorize":
        m = write_input(workdir / "m.csv", run["input"], (rows, n), rng)
        if mode == "invariant":
            return ["factorize", *perm, "--mode", mode, *rank, "--matrix", m]
        return ["factorize", *perm, "--mode", mode, *component, "--seed", "1",
                *(["--matrix", m] if run["input"] != "good" else [])]
    if command == "verify":
        return ["verify", *perm, *rank]
    height, width, samples = run["image"]
    return ["demo-shift", "--height", str(height), "--width", str(width),
            "--samples", str(samples), *rank, "--seed", "3"]


@settings(max_examples=80, deadline=None)
@given(cli_invocations())
def test_every_subcommand_exits_cleanly_on_any_input(run):
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        out = workdir / "out.json"
        argv = cli_argv(run, workdir) + ["--out", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            rc = main(argv)
        if rc == 0:
            validate(SCHEMA_OF[run["command"]], json.loads(out.read_text()))
        else:
            assert rc == 1, argv
            validate("error", json.loads(stderr.getvalue()))


DETERMINISM_SCRIPT = """
import contextlib, io, json, sys
from permlin.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    results.append([argv[0], rc, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    rng = np.random.default_rng(11)
    files = {}
    for name, shape in (("x", (9, 14)), ("y", (9, 14)), ("yi", (4, 14)), ("m", (9, 9))):
        files[name] = str(tmp_path / f"{name}.csv")
        matio.write_matrix_csv(files[name], rng.standard_normal(shape))
    rot = ["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"]
    runs = [
        ["analyze", *rot],
        ["count", *rot, "--rank", "3", "--field", "complex"],
        ["components", *rot, "--rank", "3"],
        ["project", *rot, "--mode", "equivariant", "--matrix", files["m"]],
        ["project", *rot, "--mode", "invariant", "--matrix", files["m"]],
        ["fit", *rot, "--mode", "equivariant", "--rank", "3", "--x", files["x"], "--y", files["y"],
         "--candidates"],
        ["fit", *rot, "--mode", "invariant", "--rank", "2", "--x", files["x"], "--y", files["yi"]],
        ["factorize", *rot, "--mode", "equivariant", "--component", "1,0,1", "--seed", "7"],
        ["factorize", *rot, "--mode", "invariant", "--rank", "3", "--matrix", files["m"]],
        ["verify", *rot, "--rank", "3"],
        ["demo-shift", "--height", "4", "--width", "6", "--samples", "60", "--rank", "8"],
    ]
    assert {argv[0] for argv in runs} == set(SCHEMA_OF)
    procs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        procs.append(subprocess.Popen([sys.executable, "-c", DETERMINISM_SCRIPT, json.dumps(runs)],
                                      env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = [proc.communicate() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), [err for _, err in outputs]
    first, second = (out for out, _ in outputs)
    assert first == second
    results = json.loads(first)
    # invariant factorize rejects the non-invariant M (exit 1)
    assert [rc for _, rc, _, _ in results] == [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
