import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homtwist
from homtwist import axioms
from homtwist.catalog import catalog_get
from homtwist.cli import from_document, load_algebra, main, save_algebra, to_document
from homtwist.constructions import derived_algebra, rb_dendriform
from homtwist.core import LinearMap

from _factories import attach_rb, one_op_algebra


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fixture_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "ex_assoc3",
                           "--class", "hom-associative")
        assert code == 0
        assert "PASS" in out

    def test_fixture_fail_witness(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "ex_assoc3",
                           "--class", "associative", "--set", "a=1", "--set", "b=2")
        assert code == 1
        assert "(1,1,3): -2*x3" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "nonexistent.file", "--class", "lie")
        assert code == 2
        assert "error" in err

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "ex_assoc3",
                           "--class", "associative", "--set", "a=1", "--set", "b=2",
                           "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["witnesses"][0]["indices"] == [1, 1, 3]
        assert doc["witnesses"][0]["residual"] == ["0", "0", "-2"]

    def test_partial_assignment_symbolic_check(self, capsys):
        code, out, _ = run(capsys, "check", "--fixture", "ex_assoc3",
                           "--class", "hom-associative", "--set", "a=2")
        assert code == 0

    def test_bad_set_flag(self, capsys):
        code, _, err = run(capsys, "check", "--fixture", "ex_assoc3",
                           "--class", "associative", "--set", "a")
        assert code == 2

    def test_file_and_fixture_conflict(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        save_algebra(catalog_get("unital_field"), str(path))
        code, _, err = run(capsys, "check", str(path), "--fixture", "unital_field",
                           "--class", "associative")
        assert code == 2

    def test_witness_cap_must_be_positive(self, capsys):
        for cap in ("0", "-1", "x"):
            code, out, err = run(capsys, "check", "--fixture", "ex_assoc3",
                                 "--class", "associative", "--set", "a=1", "--set", "b=2",
                                 "--witness-cap", cap)
            assert code == 2
            assert out == ""
            assert "--witness-cap" in err

    def test_integer_rows_exit_2(self, capsys, tmp_path):
        path = tmp_path / "introws.json"
        path.write_text(json.dumps({
            "format": 1, "dim": 2, "params": [], "signature": "associative",
            "ops": {"mul": [3, 7]}, "alpha": [["1", "0"], ["0", "1"]],
        }))
        code, out, err = run(capsys, "check", str(path), "--class", "associative")
        assert code == 2
        assert out == ""
        assert "mul" in err and "Traceback" not in err

    def test_rota_baxter_class(self, capsys, tmp_path):
        instance = attach_rb(catalog_get("unital_field"), 1, LinearMap([[-1]]))
        path = tmp_path / "rb.json"
        save_algebra(instance, str(path))
        code, out, _ = run(capsys, "check", str(path), "--class", "rota-baxter")
        assert code == 0


class TestConstruct:
    def test_derived_writes_document(self, capsys, tmp_path):
        out_path = tmp_path / "derived.json"
        code, out, err = run(capsys, "construct", "derived", "--fixture", "ex_assoc3",
                             "--set", "a=1", "--set", "b=2", "--n", "1",
                             "--type", "1", "-o", str(out_path))
        assert code == 0
        assert "output check hom-associative: PASS" in out
        loaded = load_algebra(str(out_path))
        base = catalog_get("ex_assoc3", {"a": 1, "b": 2})
        assert loaded.alpha == base.alpha.power(2)

    def test_precondition_failure_exit_1(self, capsys):
        code, _, err = run(capsys, "construct", "derived", "--fixture", "ex_assoc3",
                           "--set", "a=2", "--set", "b=1", "--n", "1")
        assert code == 1
        assert "precondition" in err

    def test_force_overrides(self, capsys):
        code, out, _ = run(capsys, "construct", "derived", "--fixture", "ex_assoc3",
                           "--set", "a=2", "--set", "b=1", "--n", "1", "--force")
        assert code == 0

    @pytest.mark.parametrize("fixture", ["unital_field", "zero_algebra"])
    @pytest.mark.parametrize("kind", ["dendriform-star", "dendriform-prelie",
                                      "tridendriform-star", "embed-trid"])
    def test_force_still_needs_the_operations(self, capsys, kind, fixture):
        # --force skips identity checks, not the operations a construction reads
        code, out, err = run(capsys, "construct", kind, "--fixture", fixture, "--force")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "construction requires operations 'left'" in err

    def test_diagram_check(self, capsys, tmp_path):
        A = one_op_algebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
        instance = attach_rb(A, 0, LinearMap([[0, 0], [1, 0]]))
        path = tmp_path / "rb.json"
        save_algebra(instance, str(path))
        code, out, _ = run(capsys, "construct", "diagram-check", str(path))
        assert code == 0
        assert "commutes: true" in out

    def test_rb_dendriform_document(self, capsys, tmp_path):
        A = one_op_algebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
        instance = attach_rb(A, 0, LinearMap([[0, 0], [1, 0]]))
        src = tmp_path / "rb.json"
        dst = tmp_path / "dend.json"
        save_algebra(instance, str(src))
        code, out, _ = run(capsys, "construct", "rb-dendriform", str(src),
                           "-o", str(dst))
        assert code == 0
        assert "output check hom-dendriform: PASS" in out
        assert load_algebra(str(dst)).signature.cls == "dendriform"

    def test_yau_twist_with_map_file(self, capsys, tmp_path):
        A = one_op_algebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
        src = tmp_path / "alg.json"
        save_algebra(A, str(src))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        code, out, _ = run(capsys, "construct", "yau-twist", str(src),
                           "--map", str(map_path), "-o", str(tmp_path / "tw.json"))
        assert code == 0
        assert "hom-associative: PASS" in out

    def test_map_required(self, capsys, tmp_path):
        src = tmp_path / "alg.json"
        save_algebra(catalog_get("unital_field"), str(src))
        code, _, err = run(capsys, "construct", "yau-twist", str(src))
        assert code == 2
        assert "--map" in err

    def test_stdout_document(self, capsys, tmp_path):
        src = tmp_path / "alg.json"
        save_algebra(catalog_get("unital_field"), str(src))
        code, out, err = run(capsys, "construct", "commutator", str(src))
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"] == "lie"
        assert "hom-lie: PASS" in err


class TestSearchCommand:
    def test_rb_search(self, capsys):
        code, out, _ = run(capsys, "search", "rb", "--fixture", "unital_field",
                           "--weight", "1", "--entries=-1,0,1", "--verify")
        assert code == 0
        assert "solutions: 2" in out
        assert "verified" in out

    def test_symbolic_fixture_rejected(self, capsys):
        code, _, err = run(capsys, "search", "rb", "--fixture", "ex_assoc3")
        assert code == 2
        assert "parameter-free" in err

    def test_centroid_search(self, capsys):
        code, out, _ = run(capsys, "search", "centroid", "--fixture", "zero_algebra",
                           "--dim", "2", "--verify")
        assert code == 0
        assert "centroid dimension: 4" in out

    def test_oracle_flag_agrees(self, capsys):
        code, out, _ = run(capsys, "search", "rb", "--fixture", "unital_field",
                           "--weight", "1", "--json")
        fast = json.loads(out)
        code2, out2, _ = run(capsys, "search", "rb", "--fixture", "unital_field",
                             "--weight", "1", "--json", "--oracle")
        assert code == code2 == 0
        assert fast == json.loads(out2)

    def test_zero_denominator_weight(self, capsys):
        code, out, err = run(capsys, "search", "rb", "--fixture", "unital_field",
                             "--weight", "3/0")
        assert code == 2
        assert out == ""
        assert "--weight" in err and "Traceback" not in err

    def test_zero_limit_refused(self, capsys):
        for extra in ((), ("--oracle",)):
            code, out, err = run(capsys, "search", "rb", "--fixture", "unital_field",
                                 "--weight", "1", "--limit", "0", *extra)
            assert code == 2
            assert out == ""
            assert "limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ("--weight", "1e999999999"),
        ("--entries=1e-999999999",),
        ("--set", "a=1E999999999"),
    ], ids=["weight", "entries", "set"])
    def test_huge_decimal_exponent_refused(self, capsys, flags):
        # 10**e is refused before it is computed: the run ends at once
        code, out, err = run(capsys, "search", "rb", "--fixture", "unital_field", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "decimal exponent" in err

    def test_budget_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMTWIST_SEARCH_BUDGET", "10")
        code, _, err = run(capsys, "search", "rb", "--fixture", "zero_algebra",
                           "--dim", "2")
        assert code == 2
        assert "budget" in err


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        for name in ("ex_assoc3", "ex_homlie3", "jackson_sl2", "unital_field",
                     "zero_algebra"):
            assert name in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "--json")
        doc = json.loads(out)
        assert {f["name"] for f in doc} >= {"ex_assoc3", "jackson_sl2"}


class TestEval:
    def test_evaluates(self, capsys):
        code, out, _ = run(capsys, "eval", "(a-b)*b", "--set", "a=1", "--set", "b=2")
        assert code == 0
        assert out.strip() == "-2"

    def test_symbolic_canonical_form(self, capsys):
        code, out, _ = run(capsys, "eval", "--params", "q", "--", "-1/2*(1+q)")
        assert code == 0
        assert out.strip() == "-1/2*q - 1/2"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "1+*2")
        assert code == 2

    def test_huge_power_refused(self, capsys):
        code, out, err = run(capsys, "eval", "(1+a)^99999999", "--params", "a")
        assert code == 2
        assert out == ""
        assert "exceeds the size bound" in err and "position 5" in err
        code, out, err = run(capsys, "eval", "((((2^100)^100)^100)^100)^100")
        assert code == 2
        assert out == ""
        assert "exceeds the size bound" in err and "position 15" in err

    def test_printed_powers_parse_back(self, capsys):
        code, out, _ = run(capsys, "eval", "a^100*a", "--params", "a")
        assert (code, out) == (0, "a^101\n")
        code, out, _ = run(capsys, "eval", out.strip(), "--params", "a")
        assert (code, out) == (0, "a^101\n")

    def test_deep_nesting_refused(self, capsys):
        for argv in (["eval", "(" * 400 + "a" + ")" * 400, "--params", "a"],
                     ["eval", "--params", "a", "--", "-" * 3000 + "a"],
                     ["eval", "--params", "a", "--", "-(" * 60 + "a" + ")" * 60]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "nesting deeper than 100 levels (at position 100)" in err
            assert "Traceback" not in err

    def test_nesting_at_the_bound_accepted(self, capsys):
        code, out, _ = run(capsys, "eval", "(" * 100 + "a" + ")" * 100, "--params", "a")
        assert (code, out) == (0, "a\n")
        code, out, _ = run(capsys, "eval", "--params", "a", "--", "-" * 100 + "a")
        assert (code, out) == (0, "a\n")

    def test_huge_product_refused(self, capsys, monkeypatch):
        from homtwist.scalar import Scalar

        largest = []
        multiply = Scalar.__mul__

        def counting(self, other):
            if isinstance(other, Scalar):
                largest.append(len(self.terms) * len(other.terms))
            return multiply(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        code, out, err = run(capsys, "eval", "(1+a)^100*(1+b)^100*(1+c)^10",
                             "--params", "a,b,c")
        assert code == 2
        assert out == ""
        assert "product exceeds the size bound" in err and "position 9" in err
        assert max(largest) < 101 * 101  # refused before the first product
        code, out, _ = run(capsys, "eval", "(1+a)^100*(1+b)", "--params", "a,b")
        assert code == 0 and out.startswith("a^100*b + a^100 + ")

    # the grammar's tokens, with an unknown name and exponents past the size bound
    _TOKENS = ["0", "1", "2", "7", "99999999", "a", "b", "c", "+", "-", "*", "/", "^",
               "(", ")", " "]

    @given(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join))
    @settings(max_examples=80, deadline=None)
    def test_fuzz_exit_contract(self, expr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--params", "a,b", "--", expr])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2)
        assert "Traceback" not in out + err
        if code == 2:
            assert out == "" and err
        else:
            assert out and err == ""


class TestDocuments:
    def test_round_trip_catalog(self, tmp_path):
        for name, kwargs in [("ex_assoc3", {}), ("ex_homlie3", {}),
                             ("jackson_sl2", {}), ("unital_field", {}),
                             ("zero_algebra", {"dim": 2})]:
            A = catalog_get(name, **kwargs)
            path = tmp_path / f"{name}.json"
            save_algebra(A, str(path))
            assert load_algebra(str(path)) == A

    def test_round_trip_high_powers(self, tmp_path):
        # alpha^64 of the type-2 derived algebra has the entry q^128
        D = derived_algebra(catalog_get("jackson_sl2"), 6, "type2", force=True)
        path = tmp_path / "derived.json"
        save_algebra(D, str(path))
        assert "q^128" in path.read_text()
        assert load_algebra(str(path)) == D

    def test_round_trip_with_rb(self):
        instance = attach_rb(catalog_get("unital_field"), 1, LinearMap([[-1]]))
        assert from_document(to_document(instance)) == instance

    def test_round_trip_multi_op(self):
        A = one_op_algebra(2, [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])
        D = rb_dendriform(attach_rb(A, 0, LinearMap([[0, 0], [1, 0]])), False)
        assert from_document(to_document(D)) == D

    def test_format_field_required(self):
        doc = to_document(catalog_get("unital_field"))
        doc["format"] = 2
        with pytest.raises(ValueError, match="unsupported document format"):
            from_document(doc)
        del doc["format"]
        with pytest.raises(ValueError, match="unsupported document format"):
            from_document(doc)

    @pytest.mark.parametrize("field, value", [("format", True), ("format", 1.0), ("dim", True)])
    def test_format_and_dim_are_json_integers(self, capsys, tmp_path, field, value):
        # true and 1.0 compare equal to 1 in Python; a document holds the integer
        bad = dict(to_document(catalog_get("unital_field")), **{field: value})
        with pytest.raises(ValueError, match=field):
            from_document(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "check", str(path), "--class", "associative")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cls", ["dendriform", "tridendriform"])
    def test_fixed_op_classes_refuse_extra_operations(self, capsys, tmp_path, cls):
        doc = to_document(catalog_get("zero_algebra", dim=2))
        table = doc["ops"].pop("mul")
        names = ("left", "right", "dot")[:2 if cls == "dendriform" else 3]
        doc.update(signature=cls, ops={name: table for name in reversed(names)})
        # in the canonical order whatever the document's order
        assert from_document(doc).signature.op_names == names
        for ops in ({**doc["ops"], "bogus": "not even an array"},
                    {name: table for name in names[1:]}):
            bad = dict(doc, ops=ops)
            with pytest.raises(ValueError, match=f"{cls} signature requires operations"):
                from_document(bad)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            code, out, err = run(capsys, "check", str(path), "--class", f"hom-{cls}")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_schema_errors(self):
        doc = to_document(catalog_get("unital_field"))
        bad = dict(doc)
        bad["dim"] = 0
        with pytest.raises(ValueError):
            from_document(bad)
        bad = dict(doc)
        bad["ops"] = {}
        with pytest.raises(ValueError):
            from_document(bad)
        bad = json.loads(json.dumps(doc))
        bad["alpha"] = [["1"]] * 2
        with pytest.raises(ValueError):
            from_document(bad)

    def test_nested_arrays_must_be_lists(self):
        doc = to_document(catalog_get("zero_algebra", dim=2))
        for table in ([3, 7], [[1, 2], [3, 4]], [["00", "00"], ["00", "00"]]):
            bad = json.loads(json.dumps(doc))
            bad["ops"]["mul"] = table
            with pytest.raises(ValueError, match="2x2x2 array"):
                from_document(bad)
        bad = json.loads(json.dumps(doc))
        bad["alpha"] = ["10", "01"]
        with pytest.raises(ValueError, match="alpha"):
            from_document(bad)

    def test_params_must_be_list_of_strings(self):
        doc = to_document(catalog_get("ex_assoc3"))
        assert doc["params"] == ["a", "b"]
        for params in ("ab", [1, 2], {"a": 1}):
            bad = dict(doc, params=params)
            with pytest.raises(ValueError, match="params"):
                from_document(bad)

    def test_labels_must_be_list_of_strings(self):
        doc = to_document(catalog_get("unital_field"))
        for labels in ("x", 5, [1]):
            with pytest.raises(ValueError, match="labels"):
                from_document(dict(doc, labels=labels))

    def test_deeply_nested_entry_refused(self, capsys, tmp_path):
        doc = to_document(catalog_get("unital_field"))
        doc["alpha"] = [["(" * 400 + "1" + ")" * 400]]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path), "--class", "associative")
        assert code == 2
        assert out == ""
        assert "nesting deeper than 100 levels" in err and "Traceback" not in err

    def test_signature_must_be_a_name(self, capsys, tmp_path):
        doc = to_document(catalog_get("unital_field"))
        path = tmp_path / "bad.json"
        for signature in (["associative"], {"a": 1}):
            bad = dict(doc, signature=signature)
            with pytest.raises(ValueError, match="unknown signature class"):
                from_document(bad)
            path.write_text(json.dumps(bad))
            code, out, err = run(capsys, "check", str(path), "--class", "hom-associative")
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("check", "{path}", "--class", "associative"),
        ("construct", "yau-twist", "--fixture", "unital_field", "--map", "{path}"),
    ], ids=["file", "map"])
    def test_deeply_nested_json_refused(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_labels_survive(self):
        A = catalog_get("ex_assoc3")
        doc = to_document(A)
        assert doc["labels"] == ["x1", "x2", "x3"]
        assert from_document(doc).basis_labels == ("x1", "x2", "x3")


class TestSearchOutput:
    """The exact stdout of the search listings and of their verification."""

    RB = ("search", "rb", "--fixture", "unital_field", "--weight", "1", "--verify")
    CENTROID = ("search", "centroid", "--fixture", "zero_algebra", "--dim", "2", "--verify")

    def test_rb_text(self, capsys):
        assert run(capsys, *self.RB) == (0, (
            "solutions: 2\n"
            "solution 1:\n"
            "  [-1]\n"
            "solution 2:\n"
            "  [0]\n"
            "verified: all 2 solutions pass the Rota-Baxter check\n"
        ), "")

    def test_rb_json(self, capsys):
        assert run(capsys, *self.RB, "--json") == (0, (
            '[[["-1"]], [["0"]]]\n'
            "verified: all 2 solutions pass the Rota-Baxter check\n"
        ), "")

    def test_centroid_text(self, capsys):
        assert run(capsys, *self.CENTROID) == (0, (
            "centroid dimension: 4\n"
            "basis element 1:\n  [1, 0]\n  [0, 0]\n"
            "basis element 2:\n  [0, 1]\n  [0, 0]\n"
            "basis element 3:\n  [0, 0]\n  [1, 0]\n"
            "basis element 4:\n  [0, 0]\n  [0, 1]\n"
            "verified: all 4 elements pass the centroid check\n"
        ), "")

    def test_centroid_json(self, capsys):
        assert run(capsys, *self.CENTROID, "--json") == (0, (
            '[[["1", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]], '
            '[["0", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]\n'
            "verified: all 4 elements pass the centroid check\n"
        ), "")

    @pytest.mark.parametrize("argv, checker, message", [
        (RB, "check_rota_baxter", "verification FAILED for a reported solution\n"),
        (CENTROID, "check_centroid", "verification FAILED for a basis element\n"),
    ])
    def test_verification_failure(self, capsys, monkeypatch, argv, checker, message):
        monkeypatch.setattr(axioms, checker,
                            lambda *args: axioms.AxiomReport(checker, passed=False))
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == message
        assert "verified" not in out


@pytest.mark.parametrize("module", ["homtwist", "homtwist.cli"])
class TestModuleEntry:
    """``python -m homtwist`` and ``python -m homtwist.cli`` run the command."""

    @staticmethod
    def run_module(module, *argv):
        src = str(Path(homtwist.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)

    def test_catalog(self, module):
        done = self.run_module(module, "catalog")
        assert done.returncode == 0
        assert done.stderr == ""
        for name in ("ex_assoc3", "ex_homlie3", "jackson_sl2", "unital_field", "zero_algebra"):
            assert name in done.stdout

    def test_forced_construction_error(self, module):
        done = self.run_module(module, "construct", "dendriform-star",
                               "--fixture", "unital_field", "--force")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
