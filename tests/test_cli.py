import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from permlin import matio
from permlin.cli import main
from permlin.perms import Permutation, cycle_decomposition
from permlin.spectral import eigen_multiplicities

from helpers import commutator_ratio, write_matrix_csv, write_matrix_json

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "permlin" / "schemas"
BAD_JSON = ("[1, 2]", '{"rows": 1}', '{"rows": 1, "cols": 1, "data": [null]}', "{bad",
            '{"rows": -1, "cols": 1, "data": [1]}')


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
        write_matrix_csv(csv, m)
        back = matio.read_matrix(csv)
        write_matrix_json(js, back)
        again = matio.read_matrix(js)
        assert np.array_equal(m, back) and np.array_equal(back, again)

    def test_complex_matrix_is_not_written(self):
        from permlin.errors import MatrixFormatError

        with pytest.raises(MatrixFormatError, match="complex128"):
            matio.matrix_to_json_obj(np.array([[1.0, 1 + 2j]]))


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

    def test_complex_rotation(self, capsys):
        rc, _ = run_cli(["count", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--rank", "3", "--field", "complex"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "17"


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
        write_matrix_csv(mfile, m)
        out = tmp_path / "p.json"
        rc, payload = run_cli(["project", "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                               "--mode", "equivariant", "--matrix", str(mfile),
                               "--out", str(out)], out)
        assert rc == 0
        proj = matio.matrix_from_json_obj(payload["matrix"])
        from permlin.perms import parse_permutation

        assert commutator_ratio(proj, parse_permutation("(1 4 3 2)(5 8 7 6)", 9)) <= 1e-10
        validate("project", payload)

    def test_fit_equivariant_and_schema(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(xf, x)
        write_matrix_csv(yf, y)
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
        write_matrix_csv(xf, rng.standard_normal((9, 20)))
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
        write_matrix_csv(mfile, m)
        out = tmp_path / "p.json"
        rc, payload = run_cli(["project", "--perm", "(1 3 4)(2 5)", "--n", "5",
                               "--mode", "invariant", "--matrix", str(mfile),
                               "--out", str(out)], out)
        assert rc == 0
        proj = np.asarray(matio.matrix_from_json_obj(payload["matrix"]), dtype=float)
        assert np.allclose(proj[:, 0], proj[:, 2]) and np.allclose(proj[:, 0], proj[:, 3])
        validate("project", payload)

    def test_fit_named_component_and_search(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(xf, x)
        write_matrix_csv(yf, y)
        out = tmp_path / "fit.json"
        base = ["fit", "--mode", "equivariant", "--perm", "(1 4 3 2)(5 8 7 6)",
                "--n", "9", "--rank", "3", "--x", str(xf), "--y", str(yf),
                "--out", str(out)]
        rc, payload = run_cli(base + ["--component", "1,0,1"], out)
        assert rc == 0 and payload["component"] == [1, 0, 1] and payload["component_source"] == "named"
        named_loss = payload["loss"]
        rc, payload = run_cli(base, out)
        assert rc == 0 and payload["component_source"] == "search"
        assert payload["loss"] <= named_loss + 1e-9
        validate("fit", payload)

    def test_fit_component_with_heuristic_rejected(self, tmp_path):
        # every fit without --component takes the exact search: --heuristic
        # is no option, with or without a component
        xf = tmp_path / "x.csv"
        write_matrix_csv(xf, np.random.default_rng(5).standard_normal((9, 20)))
        base = ["fit", "--mode", "equivariant", "--perm", "(1 4 3 2)(5 8 7 6)",
                "--n", "9", "--rank", "3", "--x", str(xf), "--y", str(xf)]
        for extra in (["--heuristic", "energy"], ["--component", "1,0,1", "--heuristic", "energy"]):
            with pytest.raises(SystemExit) as exc:
                main(base + extra)
            assert exc.value.code == 2

    def test_fit_invariant(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 15))
        y = rng.standard_normal((4, 15))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(xf, x)
        write_matrix_csv(yf, y)
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
        write_matrix_csv(mfile, m)
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

    def test_verify_omits_the_count_check_above_the_census_cap(self, tmp_path, monkeypatch):
        """30 cycles of length 8 at rank 40: the complex census (62,799,979)
        is above the oracle's cap, so its check is omitted, and the oracle's
        recursion makes at most 1 + 5 blocks x 19,201 calls for the real
        census."""
        from permlin import oracles

        visits = [0]
        rank_vectors = oracles._rank_vectors

        def counted(blocks, r):
            visits[0] += 1
            return rank_vectors(blocks, r)

        monkeypatch.setattr(oracles, "_rank_vectors", counted)
        out = tmp_path / "v.json"
        rc, payload = run_cli(["verify", "--cycle-type", "30x8", "--rank", "40", "--out", str(out)], out)
        assert rc == 0 and payload["ok"] is True
        assert [c["check"] for c in payload["checks"]] == ["component_count_real"]
        assert payload["checks"][0]["fast"] == "19201" and payload["checks"][0]["ok"] is True
        assert 0 < visits[0] <= 1 + 5 * 19201
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

    def test_verify_checks_the_orbit_sums(self, tmp_path):
        """One generator's projection and classification blocks, read from
        orbit sums, against label averaging and the conjugation, up to the
        scored-search size cap."""
        out = tmp_path / "v.json"
        names = ("equivariant_projection_vs_labels", "classify_blocks_vs_conjugate")
        for args in (["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"], ["--cycle-type", "2x3,1x4,1x1"],
                     ["--cycle-type", "2x8"], ["--cycle-type", "16x1"]):
            rc, payload = run_cli(["verify", *args, "--rank", "3", "--out", str(out)], out)
            assert rc == 0
            validate("verify", payload)
            checks = {c["check"]: c for c in payload["checks"]}
            for name in names:
                assert checks[name]["ok"] is True and checks[name]["oracle"] == 0.0
                assert 0.0 <= checks[name]["fast"] <= 1e-12
        rc, payload = run_cli(["verify", "--cycle-type", "1x40", "--rank", "3", "--out", str(out)], out)
        assert rc == 0
        assert not set(names) & {c["check"] for c in payload["checks"]}

    def test_verify_checks_that_factorize_reconstructs(self, tmp_path):
        """A check factors a planted member of the searched component and
        rebuilds it; its draw comes after the data of every check before it.
        Only the autoencoder check, whose data come last, follows it."""
        out = tmp_path / "v.json"
        for args in (["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"], ["--cycle-type", "2x3,1x4,1x1"],
                     ["--cycle-type", "1x9"]):
            rc, payload = run_cli(["verify", *args, "--rank", "3", "--out", str(out)], out)
            assert rc == 0
            validate("verify", payload)
            check = payload["checks"][-2]
            assert check["check"] == "factorize_reconstructs" and check["ok"] is True
            assert 0.0 <= check["fast"] <= 1e-12

    def test_verify_checks_the_equivariant_autoencoder_against_the_projection_oracle(self, tmp_path):
        """The last check fits X on itself, the Gram route, against the
        projection oracle, up to the oracle's size cap.  Its data are drawn
        after every other check's, so that no earlier check's data move."""
        out = tmp_path / "v.json"
        for args in (["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"], ["--cycle-type", "2x3,1x4,1x1"],
                     ["--cycle-type", "1x9"], ["--perm", "(1 2 3 4 5 6 7)(8 9 10)(11 12)", "--n", "12"]):
            rc, payload = run_cli(["verify", *args, "--rank", "3", "--out", str(out)], out)
            assert rc == 0 and payload["ok"] is True
            validate("verify", payload)
            check = payload["checks"][-1]
            assert check["check"] == "equivariant_autoencoder_vs_projection_oracle" and check["ok"] is True
            assert abs(check["fast"] - check["oracle"]) <= 1e-9 * check["oracle"]
        rc, payload = run_cli(["verify", "--cycle-type", "1x13", "--rank", "3", "--out", str(out)], out)
        assert rc == 0
        assert "equivariant_autoencoder_vs_projection_oracle" not in {c["check"] for c in payload["checks"]}

    def test_verify_checks_the_commutator_against_dense(self, tmp_path):
        """`is_equivariant`, read in one cycle-order pass, against the dense
        P M P^T on an equivariant projection and on a random matrix, up to
        the scored-search size cap.  Under the identity every matrix is
        equivariant."""
        out = tmp_path / "v.json"
        for args, verdicts in ((["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"], "True,False"),
                               (["--cycle-type", "2x3,1x4,1x1"], "True,False"),
                               (["--cycle-type", "2x8"], "True,False"), (["--cycle-type", "16x1"], "True,True")):
            rc, payload = run_cli(["verify", *args, "--rank", "3", "--out", str(out)], out)
            assert rc == 0
            validate("verify", payload)
            check = {c["check"]: c for c in payload["checks"]}["commutator_vs_dense"]
            assert check["ok"] is True and check["fast"] == check["oracle"] == verdicts
        rc, payload = run_cli(["verify", "--cycle-type", "1x40", "--rank", "3", "--out", str(out)], out)
        assert rc == 0
        assert "commutator_vs_dense" not in {c["check"] for c in payload["checks"]}

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
        assert losses["dense"] <= losses["equivariant_search"] + 1e-12
        validate("demo_shift", payload)

    def test_demo_shift_changes_the_basis_of_no_data_chunk(self, tmp_path, monkeypatch):
        """One equivariant solve serves the three equivariant fits, and it
        reads its block Grams off the Gram G = X X^T: no chunk of X is
        changed to the Q basis."""
        from permlin.spectral import BaseChange

        calls = []
        to_basis = BaseChange.to_basis

        def counted(self, x):
            calls.append(x.shape)
            return to_basis(self, x)

        monkeypatch.setattr(BaseChange, "to_basis", counted)
        out = tmp_path / "d.json"
        rc, _ = run_cli(["demo-shift", "--height", "4", "--width", "6", "--samples", "60",
                         "--rank", "8", "--out", str(out)], out)
        assert rc == 0 and calls == []

    def test_demo_shift_decomposes_no_dense_gram(self, tmp_path, monkeypatch):
        """The dense baseline reads its loss off the eigenvalues of the n x n
        Gram, one np.linalg.eigvalsh; every np.linalg.eigh is of a block
        Gram of the equivariant solve, of at most `height` rows."""
        decompositions = {"eigh": [], "eigvalsh": []}
        for name, calls in decompositions.items():
            def counted(h, _kernel=getattr(np.linalg, name), _calls=calls):
                _calls.append(h.shape)
                return _kernel(h)

            monkeypatch.setattr(np.linalg, name, counted)
        out = tmp_path / "d.json"
        rc, _ = run_cli(["demo-shift", "--height", "6", "--width", "8", "--samples", "120",
                         "--rank", "10", "--out", str(out)], out)
        assert rc == 0
        assert decompositions["eigvalsh"] == [(48, 48)]
        assert len(decompositions["eigh"]) == 5  # the blocks of the 8-cycle: +1, -1, 3 pairs
        assert all(shape[0] <= 6 for shape in decompositions["eigh"])

    def test_demo_shift_places_no_factors(self, tmp_path, monkeypatch):
        """demo-shift reports losses, ranks and components, which its fits
        read from their per-block factors: no fit places its decoder or
        encoder, so no basis is changed back."""
        from permlin import spectral

        calls = []

        def counted(self, a, _from_basis=spectral.BaseChange.from_basis):
            calls.append(a.shape)
            return _from_basis(self, a)

        monkeypatch.setattr(spectral.BaseChange, "from_basis", counted)
        out = tmp_path / "d.json"
        rc, _ = run_cli(["demo-shift", "--height", "6", "--width", "8", "--samples", "120",
                         "--rank", "10", "--out", str(out)], out)
        assert rc == 0
        assert calls == []

    def test_demo_shift_never_holds_x(self, tmp_path, monkeypatch):
        """At 32x32 with 2000 samples (X would be 16.4 MB): the samples are
        summed into the Gram G = X X^T a chunk of columns at a time, and the
        solve reads its block Grams off G, so X is never held.  The dense
        eigvalsh finds below 0.6 X.nbytes allocated (G alone is 0.51; 0.54
        measured, 0.55 when X was released only after forming G), and the
        whole run peaks below 0.7 X.nbytes (0.63 measured: G and the scratch
        of the orbit-sum pass that reads the block Grams; 1.55 when X and G
        were held together).  tracemalloc does not see the buffer into which
        numpy's eigvalsh copies G."""
        import tracemalloc

        from helpers import traced

        held = []

        def counted(h, _kernel=np.linalg.eigvalsh):
            held.append(tracemalloc.get_traced_memory()[0])
            return _kernel(h)

        out = tmp_path / "d.json"
        # a small run first, so that the peak does not count the modules a
        # first run imports
        run_cli(["demo-shift", "--height", "2", "--width", "3", "--samples", "20", "--rank", "2", "--out", str(out)])
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        nbytes = 32 * 32 * 2000 * 8
        with traced() as mem:
            rc, _ = run_cli(["demo-shift", "--height", "32", "--width", "32", "--samples", "2000",
                             "--rank", "99", "--out", str(out)], out)
        assert rc == 0 and len(held) == 1
        assert held[0] < 0.6 * nbytes
        assert mem.peak < 0.7 * nbytes

    def test_demo_shift_reports_a_gram_that_overflows(self, capsys):
        """Noise of 1e200 keeps every sample finite and overflows their Gram:
        exit 1 with only the JSON error on stderr, no numpy warning, naming
        the Gram of X."""
        rc, _ = run_cli(["demo-shift", "--height", "4", "--width", "6", "--samples", "60",
                         "--rank", "8", "--noise", "1e200"])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert json.loads(captured.err) == {"error": "NonFiniteError",
                                            "message": "Gram of X overflows; rescale the data"}

    def test_verify_checks_the_autoencoder_loss_against_the_fit(self, tmp_path):
        """The tail-sum loss against the fit's residual: at rank 3 of 9, and
        at rank 1 of 1, where the tail is empty and the residual is rounding."""
        out = tmp_path / "v.json"
        for args, empty_tail in ((["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9", "--rank", "3"], False),
                                 (["--cycle-type", "1x1", "--rank", "1"], True)):
            rc, payload = run_cli(["verify", *args, "--out", str(out)], out)
            assert rc == 0
            validate("verify", payload)
            check = {c["check"]: c for c in payload["checks"]}["autoencoder_loss_vs_fit"]
            assert check["ok"] is True and (check["fast"] == 0.0) == empty_tail

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
        write_matrix_csv(mfile, par.decoder @ par.encoder)
        rc, _ = run_cli(["factorize", "--mode", "equivariant",
                         "--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9",
                         "--component", "1,0,1", "--matrix", str(mfile)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "component" in err["message"]

    def test_factorize_matrix_factors_the_matrix(self, tmp_path, capsys):
        """`factorize --matrix` emits factors of M itself: decoder @ encoder
        is M within 16 n eps ||M||_F (the bound of the library property),
        with or without --component, for a planted (1, 0, 1, 0, 0) member
        under the 9-cycle."""
        from permlin.equivariant import make_rank_vector, parameterize_component
        from permlin.perms import parse_permutation

        nine = parse_permutation("(1 2 3 4 5 6 7 8 9)", 9)
        rvec = make_rank_vector(eigen_multiplicities(cycle_decomposition(nine)), "real", (1, 0, 1, 0, 0))
        par = parameterize_component(rvec, nine, rng=np.random.default_rng(5))
        m = par.decoder @ par.encoder
        mfile = tmp_path / "m.csv"
        write_matrix_csv(mfile, m)
        args = ["factorize", "--mode", "equivariant", "--perm", "(1 2 3 4 5 6 7 8 9)", "--n", "9",
                "--matrix", str(mfile)]
        texts = []
        for extra in ([], ["--component", "1,0,1,0,0"], ["--rank", "3"]):
            out = tmp_path / "f.json"
            rc, payload = run_cli(args + extra + ["--out", str(out)], out)
            assert rc == 0
            validate("factorize", payload)
            texts.append(out.read_text())
        assert texts[0] == texts[1] == texts[2]
        assert payload["rank_vector"] == [1, 0, 1, 0, 0]
        dec, enc = (np.array(payload[k]["data"]).reshape(payload[k]["rows"], payload[k]["cols"])
                    for k in ("decoder", "encoder"))
        assert np.linalg.norm(dec @ enc - m) <= 16 * 9 * np.finfo(float).eps * np.linalg.norm(m)
        rc, _ = run_cli(args + ["--rank", "2"])
        err = json.loads(capsys.readouterr().err)
        assert rc == 1 and err["message"] == "--rank 2 differs from the component's total rank 3"

    def test_ragged_csv_rejected(self, tmp_path):
        from permlin.errors import SizeMismatchError

        for name, text in (("bad.csv", "1,2\n3\n"), ("bad.json", '{"rows": 2, "cols": 2, "data": [1, 2]}')):
            f = tmp_path / name
            f.write_text(text)
            with pytest.raises(SizeMismatchError, match=re.escape(str(f))):
                matio.read_matrix(f)

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--perm", "(1 2)", "--n", "2"])  # missing --rank
        assert exc.value.code == 2

    def test_entry_point_installed(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        res = subprocess.run([sys.executable, "-m", "permlin.cli", "count",
                              "--cycle-type", "2x4", "--rank", "2", "--field", "real"],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout.strip().isdigit()

    @pytest.mark.parametrize("preset", [None, "3"])
    def test_permlin_threads_is_read_before_numpy_loads(self, preset):
        """PERMLIN_THREADS is the default of the BLAS thread variables when
        numpy is first imported, through `import permlin.cli`; a variable
        already set keeps its value."""
        script = ("import os, sys\n"
                  "seen = []\n"
                  "class Hook:\n"
                  "    def find_spec(self, name, path=None, target=None):\n"
                  "        if name == 'numpy' and not seen:\n"
                  "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
                  "sys.meta_path.insert(0, Hook())\n"
                  "import permlin.cli\n"
                  "print(seen)\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(PYTHONPATH=os.pathsep.join(sys.path), PERMLIN_THREADS="1")
        if preset:
            env["OPENBLAS_NUM_THREADS"] = preset
        res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert res.stdout.strip() == repr([preset or "1"])


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
        return err

    def write_data(self, tmp_path, bad=None):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        xf, yf = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix_csv(xf, x)
        write_matrix_csv(yf, y)
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

    @pytest.mark.parametrize("name, text", [
        *(("m.json", text) for text in BAD_JSON),
        ("m.csv", "1,a\n2,3\n"),
        ("m.csv", None),  # missing file
        pytest.param("m.json", "[" * 10**5 + "]" * 10**5, id="nested-too-deep"),
        # sizes and entries are checked, not coerced
        pytest.param("m.json", '{"rows": 1.9, "cols": 1, "data": [true]}', id="float-rows-bool-entry"),
        pytest.param("m.json", '{"rows": 2.0, "cols": 1, "data": [1, 2]}', id="float-rows"),
        pytest.param("m.json", '{"rows": "2", "cols": 1, "data": [1, 2]}', id="string-rows"),
        pytest.param("m.json", '{"rows": 1, "cols": true, "data": [1]}', id="bool-cols"),
        pytest.param("m.json", '{"rows": 1, "cols": 2, "data": [1, false]}', id="bool-entry"),
        pytest.param("m.json", '{"rows": 1, "cols": 2, "data": "12"}', id="string-data"),
        # entries are real numbers: complex tokens and string entries are not read
        pytest.param("m.csv", "1,1+2i\n", id="complex-token"),
        pytest.param("m.csv", "1.5+0i\n", id="complex-token-zero-imaginary"),
        pytest.param("m.json", '{"rows": 1, "cols": 1, "data": ["1.5"]}', id="string-entry"),
        pytest.param("m.json", '{"rows": 1, "cols": 1, "data": ["1+2i"]}', id="complex-string-entry"),
        pytest.param("m.json", '{"rows": 1, "cols": 1, "data": [1%s]}' % ("0" * 400), id="int-beyond-float"),
    ])
    def test_read_matrix_rejects_malformed_files(self, tmp_path, capsys, name, text):
        from permlin.errors import MatrixFormatError

        f = tmp_path / name
        if text is not None:
            f.write_text(text)
        with pytest.raises(MatrixFormatError, match=re.escape(str(f))):
            matio.read_matrix(f)
        err = self.expect_error(capsys, ["project", *self.ROT, "--mode", "equivariant",
                                         "--matrix", str(f)], "MatrixFormatError")
        assert str(f) in err["message"]

    def test_zero_size_matrix_file_is_rejected(self, tmp_path):
        # an output may have no rows or columns (a rank-0 component), but no
        # command accepts an empty matrix as input
        from permlin.errors import MatrixFormatError

        for text in ('{"rows": 0, "cols": 1, "data": []}', '{"rows": 1, "cols": 0, "data": []}'):
            f = tmp_path / "m.json"
            f.write_text(text)
            with pytest.raises(MatrixFormatError, match="positive"):
                matio.read_matrix(f)

    def test_factorize_invariant_needs_a_matrix(self, capsys):
        err = self.expect_error(capsys, ["factorize", *self.ROT, "--mode", "invariant", "--rank", "2"],
                                "PermlinError")
        assert "--matrix" in err["message"]

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("mode", ["equivariant", "invariant"])
    def test_fit_names_a_ridge_that_is_not_finite_and_positive(self, tmp_path, capsys, mode, ridge):
        x, y = self.write_data(tmp_path)
        err = self.expect_error(capsys, ["fit", *self.ROT, "--mode", mode, "--rank", "2", "--x", str(x),
                                         "--y", str(y), f"--ridge={ridge}"], "RankDeficientError")
        assert err["message"] == f"ridge must be finite and positive, got {float(ridge)!r}"

    @pytest.mark.parametrize("flag", [["--component", "garbage"], ["--candidates"]],
                             ids=["component", "candidates"])
    def test_fit_invariant_rejects_equivariant_flags(self, tmp_path, capsys, flag):
        # invariant mode would ignore them and exit 0
        x, y = self.write_data(tmp_path)
        err = self.expect_error(capsys, ["fit", *self.ROT, "--mode", "invariant", "--rank", "2",
                                         "--x", str(x), "--y", str(y), *flag], "PermlinError")
        assert err["message"] == f"{flag[0]} applies to --mode equivariant only"

    def test_factorize_invariant_rejects_a_component(self, capsys):
        err = self.expect_error(capsys, ["factorize", *self.ROT, "--mode", "invariant", "--rank", "2",
                                         "--component", "1,0,1"], "PermlinError")
        assert err["message"] == "--component applies to --mode equivariant only"

    @pytest.mark.parametrize("mode", ["equivariant", "invariant"])
    def test_fit_search_limit_needs_candidates(self, tmp_path, capsys, mode):
        # without --candidates nothing is listed, so the limit would be ignored
        x, y = self.write_data(tmp_path)
        err = self.expect_error(capsys, ["fit", *self.ROT, "--mode", mode, "--rank", "2",
                                         "--x", str(x), "--y", str(y), "--search-limit", "5"], "PermlinError")
        assert err["message"] == {"equivariant": "--search-limit applies to --candidates only",
                                  "invariant": "--search-limit applies to --mode equivariant only"}[mode]

    @pytest.mark.parametrize("mode", ["equivariant", "invariant"])
    def test_factorize_seed_needs_a_drawn_component(self, tmp_path, capsys, mode):
        # a matrix is factored as given, so a seed would be ignored
        mfile = tmp_path / "m.csv"
        write_matrix_csv(mfile, np.ones((9, 9)))
        err = self.expect_error(capsys, ["factorize", *self.ROT, "--mode", mode, "--matrix", str(mfile),
                                         "--seed", "5"], "PermlinError")
        assert err["message"] == {
            "equivariant": "--seed draws factors of a named component; --matrix is factored as given",
            "invariant": "--seed applies to --mode equivariant only"}[mode]

    def test_factorize_equivariant_rank_must_match_the_component(self, capsys):
        # component (1, 0, 1) of the rotation has total rank 1 + 2 = 3
        args = ["factorize", *self.ROT, "--mode", "equivariant", "--component", "1,0,1"]
        err = self.expect_error(capsys, [*args, "--rank", "2"], "PermlinError")
        assert err["message"] == "--rank 2 differs from the component's total rank 3"
        rc, _ = run_cli([*args, "--rank", "3"])
        assert rc == 0 and json.loads(capsys.readouterr().out)["rank_vector"] == [1, 0, 1]

    def test_complex_matrix_is_rejected(self, tmp_path, capsys):
        x, y = self.write_data(tmp_path, bad="1+2i")
        for mode in ("equivariant", "invariant"):
            self.expect_error(capsys, ["fit", *self.ROT, "--mode", mode, "--rank", "2",
                                       "--x", str(x), "--y", str(y)], "MatrixFormatError")
            self.expect_error(capsys, ["project", *self.ROT, "--mode", mode, "--matrix", str(x)],
                              "MatrixFormatError")

    def test_complex_matrix_message_names_the_argument(self, tmp_path, capsys):
        # a complex token is not a real number, so read_matrix rejects the
        # file the argument names, whichever argument it is
        x, y = self.write_data(tmp_path, bad="1+2i")
        err = self.expect_error(capsys, ["fit", *self.ROT, "--mode", "equivariant", "--rank", "2",
                                         "--x", str(y), "--y", str(x)], "MatrixFormatError")
        assert err["message"].startswith(f"cannot read a matrix from {x}: ValueError")
        err = self.expect_error(capsys, ["factorize", *self.ROT, "--mode", "equivariant",
                                         "--component", "1,0,1", "--matrix", str(x)], "MatrixFormatError")
        assert err["message"].startswith(f"cannot read a matrix from {x}: ValueError")

    @pytest.mark.parametrize("command", ["count", "components", "fit", "verify", "demo-shift"])
    def test_rank_above_capacity(self, tmp_path, capsys, command):
        # the total rank never exceeds n, so no table of size r is built
        rank = ["--rank", "1000000000000000"]
        x, y = self.write_data(tmp_path)
        argv = {
            "count": ["count", *self.ROT, *rank],
            "components": ["components", *self.ROT, *rank, "--field", "complex"],
            "fit": ["fit", *self.ROT, "--mode", "equivariant", *rank, "--x", str(x), "--y", str(y)],
            "verify": ["verify", *self.ROT, *rank],
            "demo-shift": ["demo-shift", "--height", "3", "--width", "4", "--samples", "30", *rank],
        }[command]
        if command in ("fit", "demo-shift"):
            self.expect_error(capsys, argv, "ComponentError")
            return
        rc, _ = run_cli(argv)
        out = capsys.readouterr().out
        assert rc == 0
        if command == "count":
            assert out == "0\n"
        elif command == "components":
            assert json.loads(out)["components"] == [] and json.loads(out)["count"] == "0"
        else:
            assert json.loads(out)["ok"]

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
        write_matrix_csv(f, np.eye(9))
        self.expect_error(capsys, ["project", *self.ROT, "--mode", "equivariant",
                                   "--matrix", str(f)], "NonFiniteError")
        out = tmp_path / "out.json"  # nothing is written to a named file either
        self.expect_error(capsys, ["project", *self.ROT, "--mode", "equivariant",
                                   "--matrix", str(f), "--out", str(out)], "NonFiniteError")
        assert not out.exists()


# ---------------------------------------------------------------------------
# the CLI contract: every subcommand, on any input, exits 0 with output valid
# under its schema or exits 1 with a valid JSON error, never a traceback

SCHEMA_OF = {"analyze": "analyze", "count": "count", "components": "components",
             "project": "project", "fit": "fit", "factorize": "factorize",
             "verify": "verify", "demo-shift": "demo_shift"}
INPUTS = ("good", "good", "nan", "wrong_shape", "empty", "text", "complex", "json", "missing")


def write_input(path, kind, shape, rng):
    """A CSV matrix of the given shape, or a malformed one of the given kind."""
    if kind == "empty":
        path.write_text("")
        return str(path)
    if kind == "missing":
        return str(path.with_name("missing.csv"))
    if kind == "json":
        path = path.with_suffix(".json")
        path.write_text(BAD_JSON[rng.integers(len(BAD_JSON))])
        return str(path)
    rows, cols = (shape[0] + 1, shape[1] + 2) if kind == "wrong_shape" else shape
    m = rng.standard_normal((rows, cols))
    if kind == "nan":
        m[rng.integers(rows), rng.integers(cols)] = np.nan
    write_matrix_csv(path, m)
    if kind == "complex":  # one entry a + 2i, written as text
        lines = path.read_text().splitlines()
        i, j = rng.integers(rows), rng.integers(cols)
        row = lines[i].split(",")
        row[j] += "+2i"
        lines[i] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
    if kind == "text":
        path.write_text(path.read_text().replace(",", ",a", 1) if cols > 1 else "a\n")
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
        return ["factorize", *perm, "--mode", mode, *component,
                *(["--matrix", m] if run["input"] != "good" else ["--seed", "1"])]
    if command == "verify":
        return ["verify", *perm, *rank]
    height, width, samples = run["image"]
    return ["demo-shift", "--height", str(height), "--width", str(width),
            "--samples", str(samples), *rank, "--seed", "3"]


ZERO_COMPONENT = {"command": "factorize", "mode": "equivariant", "component": "0", "n": 1, "gens": [[1]],
                  "field": "real", "input": "good", "rank": 0, "rows": 1, "seed": 0, "image": (0, 1, 0)}


@settings(max_examples=80, deadline=None)
@given(cli_invocations())
@example(ZERO_COMPONENT)
@example({**ZERO_COMPONENT, "component": "0,0", "n": 3, "gens": [[2, 3, 1]]})
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
        write_matrix_csv(files[name], rng.standard_normal(shape))
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


GOLDEN_SCRIPT = """
import permlin  # first, so that PERMLIN_THREADS sets the BLAS thread count before numpy loads
import json, sys, tempfile
from pathlib import Path
from test_golden import CASES, run_case

outputs = {}
for name in CASES:
    with tempfile.TemporaryDirectory() as tmp:
        outputs[name] = run_case(name, Path(tmp))
sys.stdout.write(json.dumps(outputs))
"""


def test_outputs_are_byte_identical_at_a_fixed_thread_count():
    """The thread contract: every golden case gives the same bytes in two
    runs at PERMLIN_THREADS=1, and at PERMLIN_THREADS=2, where LAPACK may sum
    in another order, stays within the golden gate.  The three runs are
    processes of their own, run side by side."""
    from test_golden import CASES, GOLDEN, _largest_float, assert_matches

    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    procs = [subprocess.Popen([sys.executable, "-c", GOLDEN_SCRIPT], env=dict(env, PERMLIN_THREADS=threads),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for threads in ("1", "1", "2")]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), [err for _, err in outputs]
    first, second, two_threads = (json.loads(out) for out, _ in outputs)
    assert sorted(first) == sorted(CASES)
    assert first == second
    for name, text in two_threads.items():
        want, got = json.loads((GOLDEN / f"{name}.json").read_text()), json.loads(text)
        assert sorted(got) == sorted(want), name
        for key in want:
            assert_matches(want[key], got[key], _largest_float(want[key]), f"{name}: {key}")
