import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from confalg import (
    BilinearForm,
    UnknownEntry,
    catalog,
    check_axioms,
    check_gd,
    check_rota_baxter,
    cybe_residual,
    rb_constraints,
    s_residual,
    t_from_r,
)
from confalg.catalog import names, required_params
from confalg.cli import main
from confalg.io_json import (
    algebra_from_dict,
    algebra_to_dict,
    entry_to_dict,
    form_from_dict,
    form_to_dict,
    gd_from_dict,
    gd_to_dict,
    map_from_dict,
    map_to_dict,
    rep_from_dict,
    rep_to_dict,
    system_from_dict,
    system_to_dict,
    tensor_from_dict,
    tensor_to_dict,
)


class TestCatalog:
    def test_names_and_unknown(self):
        assert "vir" in names()
        with pytest.raises(UnknownEntry) as err:
            catalog("nosuch")
        assert "vir" in str(err.value)

    def test_every_entry_passes_its_own_check(self):
        for name in names():
            entry = catalog(name)
            if entry.gd is not None:
                assert check_gd(entry.gd).ok, name
            elif entry.linmap is not None:
                assert check_rota_baxter(entry.algebra, entry.linmap, 0).ok, name
            elif entry.tensor is not None:
                r = entry.tensor
                if entry.algebra.kind == "lie":
                    assert cybe_residual(entry.algebra, r).is_zero, name
                else:
                    assert s_residual(entry.algebra, r).is_zero, name
            else:
                assert check_axioms(entry.algebra).ok, name


class TestJsonRoundTrips:
    def test_algebra(self, hv):
        doc = algebra_to_dict(hv)
        back = algebra_from_dict(doc, hv.table)
        assert back.products == hv.products and back.basis == hv.basis

    def test_representation(self, hv):
        from confalg import dual_rep, standard_rep
        rep = dual_rep(standard_rep(hv, "adjoint"))
        doc = rep_to_dict(rep)
        back = rep_from_dict(doc, hv)
        assert back.rho == rep.rho and back.mbasis == rep.mbasis

    def test_tensor(self):
        entry = catalog("hv_lsc1_skew_r")
        doc = tensor_to_dict(entry.tensor)
        back = tensor_from_dict(doc, entry.algebra)
        assert back == entry.tensor

    def test_gd(self):
        for name in ("vir_gd", "hv_gd"):
            V = catalog(name).gd
            assert gd_from_dict(gd_to_dict(V), V.table) == V

    @pytest.mark.parametrize("kind", ["lie", "lsc", None])
    def test_form(self, hv, P, kind):
        form = BilinearForm(hv.table, hv.basis, [[P("x^3 - b"), P("0")], [P("2*x"), P("1/2")]], kind)
        assert form_from_dict(form_to_dict(form), hv.basis, hv.table) == form

    def test_map(self):
        entry = catalog("hv_rb_family2")
        T, basis = entry.linmap, entry.algebra.basis
        assert map_from_dict(map_to_dict(T, basis, basis), basis, basis, T.table) == T

    def test_conformal_map(self):
        entry = catalog("hv_lsc1_skew_r")
        T = t_from_r(entry.algebra, entry.tensor)
        src = tuple(n + "*" for n in entry.algebra.basis)
        doc = map_to_dict(T, src, entry.algebra.basis)
        assert map_from_dict(doc, src, entry.algebra.basis, T.table, conformal=True) == T

    def test_system(self, vir):
        system, _ = rb_constraints(vir, 2, 0)
        back = system_from_dict(system_to_dict(system))
        assert back == system

    @pytest.mark.parametrize("name", names())
    def test_catalog_entry(self, name):
        """Each section `confalg catalog NAME` prints reads back through its
        reader equal to the object the catalog builds."""
        entry = catalog(name)
        doc = entry_to_dict(entry)
        A = entry.algebra
        built = {"algebra": A, "map": entry.linmap, "tensor": entry.tensor, "gd": entry.gd}
        assert set(doc) - {"name", "note"} == {k for k, obj in built.items() if obj is not None}
        if A is not None:
            assert algebra_from_dict(doc["algebra"], A.table) == A
        if entry.linmap is not None:
            assert map_from_dict(doc["map"], A.basis, A.basis, A.table) == entry.linmap
        if entry.tensor is not None:
            assert tensor_from_dict(doc["tensor"], A) == entry.tensor
        if entry.gd is not None:
            assert gd_from_dict(doc["gd"], entry.gd.table) == entry.gd


def run(tmp_path, command, doc=None, *extra):
    argv = [command]
    if doc is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        argv += ["--in", str(path)]
    argv += list(extra)
    return main(argv)


class TestCli:
    def test_check_axioms_catalog(self, tmp_path, capsys):
        assert run(tmp_path, "check-axioms", {"algebra": "hv"}) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_check_axioms_failure(self, tmp_path, capsys):
        doc = {"algebra": {"kind": "lie", "basis": ["L"],
                           "products": {"L,L": {"L": "d+3*x"}}}}
        assert run(tmp_path, "check-axioms", doc) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["checks"][0]["residuals"][0]["poly"] == "-d"

    def test_bad_input(self, tmp_path, capsys):
        doc = {"algebra": {"kind": "lie", "basis": ["L"],
                           "products": {"L,L": {"L": "d+"}}}}
        assert run(tmp_path, "check-axioms", doc) == 2
        assert run(tmp_path, "check-axioms", {"algebra": "nosuch"}) == 2
        assert run(tmp_path, "check-cybe", {"algebra": "vir"}) == 2

    def test_check_rb_families(self, tmp_path):
        assert run(tmp_path, "check-rb",
                   {"algebra": "hv", "map": "hv_rb_family1"}, "--weight", "0") == 0
        assert run(tmp_path, "check-rb",
                   {"algebra": "hv", "map": "hv_rb_family2"}) == 0

    def test_check_rb_inline_map_with_param(self, tmp_path):
        doc = {"algebra": "hv", "params": ["b"],
               "map": {"L": {"L": "-b", "W": "-b"}, "W": {"L": "b", "W": "b"}}}
        assert run(tmp_path, "check-rb", doc) == 0

    def test_check_cybe_catalog(self, tmp_path):
        assert run(tmp_path, "check-cybe",
                   {"algebra": "hv_lsc1_skew_r", "tensor": "hv_lsc1_skew_r"}) == 0

    def test_check_s_catalog(self, tmp_path):
        assert run(tmp_path, "check-s",
                   {"algebra": "hv_lsc2_sym_r", "tensor": "hv_lsc2_sym_r"}) == 0

    def test_check_rep_and_builds(self, tmp_path, capsys):
        doc = {"algebra": "vir", "representation": {"standard": "adjoint", "dual": True}}
        assert run(tmp_path, "check-rep", doc) == 0
        capsys.readouterr()
        assert run(tmp_path, "build-dual", {"algebra": "vir",
                                            "representation": "adjoint"}) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["action"]["L,L*"]["L*"] == "d - x"
        assert run(tmp_path, "build-semidirect", doc) == 0

    def test_o_operator(self, tmp_path):
        doc = {"algebra": "vir",
               "representation": {"standard": "adjoint", "dual": True},
               "map": {"L*": {"L": "1"}}}
        assert run(tmp_path, "check-o-operator", doc) == 1

    def test_r_t_round(self, tmp_path, capsys):
        doc = {"algebra": "vir", "representation": "adjoint",
               "map": {"L": {"L": "d+x"}}}
        assert run(tmp_path, "r-from-t", doc, "--mode", "skew") == 0
        payload = json.loads(capsys.readouterr().out)
        doc2 = {"algebra": payload["algebra"], "tensor": payload["tensor"]}
        assert run(tmp_path, "t-from-r", doc2) == 0

    def test_cobracket(self, tmp_path, capsys):
        doc = {"algebra": "vir", "tensor": {"entries": [{"i": "L", "j": "L", "c": "1"}]},
               "element": {"L": "1"}}
        assert run(tmp_path, "cobracket", doc) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["c"] == "-3*d1 - 3*d2"

    def test_cocycle_pipeline(self, tmp_path, capsys):
        doc = {"algebra": "hv_lsc1_skew_r", "tensor": "hv_lsc1_skew_r"}
        assert run(tmp_path, "cocycle-from-r", doc, "--kind", "lie") == 0
        form = json.loads(capsys.readouterr().out)
        doc2 = {"algebra": "hv_lsc1_skew_r", "form": form}
        assert run(tmp_path, "check-cocycle", doc2) == 0

    def test_form_suite(self, tmp_path):
        doc = {"algebra": {"kind": "lie", "basis": ["A", "B"], "products": {}},
               "form": {"matrix": {"A,A": "1", "B,B": "1"}},
               "tensor": {"entries": [{"i": "A", "j": "B", "c": "d1"},
                                      {"i": "B", "j": "A", "c": "-d2"}]}}
        assert run(tmp_path, "form-suite", doc) == 0

    def test_constraints_then_solve(self, tmp_path, capsys):
        assert run(tmp_path, "rb-constraints", {"algebra": "vir"}, "--degree", "3") == 0
        system = json.loads(capsys.readouterr().out)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        assert main(["solve", "--in", str(path)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["status"] == "solved"
        assert set(result["assignment"].values()) == {"0"}

    def test_partial_solve_exit(self, tmp_path):
        doc = {"system": {"unknowns": ["u", "v"], "equations": ["u*v"]}}
        assert run(tmp_path, "solve", doc) == 1

    def test_inconsistent_solve_exit(self, tmp_path, capsys):
        """A well-formed system without solutions is a failed check, not bad input."""
        doc = {"system": {"unknowns": ["u"], "equations": ["u^2", "u+1"]}}
        assert run(tmp_path, "solve", doc) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {"status": "inconsistent",
                                       "reason": "equation reduces to 1"}
        assert out.err == ""

    def test_empty_equation_list_solves(self, tmp_path):
        assert run(tmp_path, "solve", {"system": {"equations": []}}) == 0

    @pytest.mark.parametrize("weight", ["0", "1", "free"])
    def test_constraints_and_solve_golden(self, tmp_path, capsys, weight):
        """rb-constraints on hv at degree 2, and solve on its output, print
        the text in tests/golden byte for byte."""
        golden = Path(__file__).resolve().parent / "golden"
        assert run(tmp_path, "rb-constraints", {"algebra": "hv"}, "--degree", "2",
                   "--weight", weight) == 0
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            (golden / f"rb_constraints.hv.D2.w{weight}.json").read_text(), "")
        path = tmp_path / "system.json"
        path.write_text(out.out)
        assert main(["solve", "--in", str(path)]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ((golden / f"solve.hv.D2.w{weight}.json").read_text(), "")

    def test_gd_flow(self, tmp_path, capsys):
        assert run(tmp_path, "gd-convert", {"gd": "vir_gd"}) == 0
        algebra = json.loads(capsys.readouterr().out)
        assert algebra["products"]["L,L"]["L"] == "d + 2*x"
        assert run(tmp_path, "gd-convert", {"algebra": "hv"}) == 0
        gd = json.loads(capsys.readouterr().out)
        assert run(tmp_path, "gd-check", {"gd": gd}) == 0
        capsys.readouterr()
        assert run(tmp_path, "zero-divisors", {"gd": "hv_gd"}) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness_basis"] == ["W", "W"]
        assert run(tmp_path, "zero-divisors", {"gd": "vir_gd"}) == 0

    def test_zero_divisor_partner_outside_the_box(self, tmp_path, capsys):
        """a * b = f(a, b) u with f_uu = 0, f_uv = 1, f_vv = 7.  The first
        candidate a = v has partners only outside the box [-3, 3]^2, b ~ (-7, 1);
        the witness comes from the exact kernel of b -> v * b."""
        doc = {"gd": {"basis": ["u", "v"], "circ": {"u,v": {"u": 1}, "v,v": {"u": "7/2"}}}}
        assert run(tmp_path, "zero-divisors", doc) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == [["0", "1"], ["-7", "1"]]
        assert "witness_basis" not in payload

    def test_gd_check_with_map(self, tmp_path):
        doc = {"gd": "hv_gd", "params": ["b"],
               "map": {"L": {"L": "-b", "W": "-b"}, "W": {"L": "b", "W": "b"}}}
        assert run(tmp_path, "gd-check", doc) == 0

    def test_coeff_window(self, tmp_path):
        doc = {"algebra": "hv", "map": "hv_rb_family1"}
        assert run(tmp_path, "coeff", doc, "--window", "4",
                   "--shift", "L=1", "--shift", "W=0") == 0

    def test_catalog_output(self, tmp_path, capsys):
        assert run(tmp_path, "catalog", None, "hv_rb_family1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["map"]["L"]["W"] == "-b"
        assert main(["catalog", "nosuch"]) == 2

    def test_reader_closing_the_pipe(self):
        """A reader that closes stdout early changes neither the exit status nor stderr."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = [sys.executable, "-m", "confalg.cli", "catalog", "hv_lsc1_skew_r"]
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONPATH=src))
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 0
        assert "Traceback" not in err

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"algebra": "vir"}))
        assert main(["check-axioms", "--in", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_param_substitution(self, tmp_path):
        assert run(tmp_path, "check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                   "--param", "b=3") == 0

    @pytest.mark.parametrize("value", ["1/3", "0.5", "free", "-2.5e-3", "1e4299", "1e-4299"])
    def test_param_rationals_up_to_the_digit_cap(self, tmp_path, value):
        assert run(tmp_path, "check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                   "--param", f"b={value}") == 0

    def test_weight_free(self, tmp_path):
        doc = {"algebra": "vir", "map": {"L": {}}}
        assert run(tmp_path, "check-rb", doc, "--weight", "free") == 0

    @pytest.mark.parametrize("value, code", [("0", 0), ("1", 1), ("free", 1)])
    def test_weight_free_takes_a_fixed_alpha(self, tmp_path, value, code):
        """Family 1 on hv is Rota-Baxter of weight 0 only."""
        doc = {"algebra": "hv", "map": "hv_rb_family1"}
        assert run(tmp_path, "check-rb", doc, "--weight", "free", "--param", f"alpha={value}") == code

    def test_constraints_weight_free_takes_a_fixed_alpha(self, tmp_path, capsys):
        doc = {"algebra": "hv", "map": "hv_rb_family1"}
        assert run(tmp_path, "rb-constraints", doc, "--degree", "1", "--weight", "0") == 0
        want = json.loads(capsys.readouterr().out)
        assert run(tmp_path, "rb-constraints", doc, "--degree", "1",
                   "--weight", "free", "--param", "alpha=0") == 0
        got = json.loads(capsys.readouterr().out)
        assert got["params"] == ["alpha"] + want["params"]
        assert got["equations"] == want["equations"]
        assert not any("alpha" in eq for eq in got["equations"])

    def test_basis_element_named_map(self, tmp_path):
        doc = {"algebra": {"basis": ["map"], "products": {"map,map": {"map": "d+2*x"}}},
               "map": {"map": {"map": "0"}}}
        assert run(tmp_path, "check-rb", doc) == 0


def commands(sections: dict) -> list[tuple[str, dict]]:
    """Commands over a catalog entry's `sections` that print the objects read
    from them, or their checks, each with its document."""
    if "map" in sections:
        return [("check-rb", sections), ("r-from-t", dict(sections, representation="adjoint"))]
    if "tensor" in sections:
        check = "check-cybe" if sections["algebra"]["kind"] == "lie" else "check-s"
        return [(check, sections), ("t-from-r", sections)]
    return [("check-axioms", sections),
            ("build-dual", dict(sections, representation="regular_left"))]


def written(doc, params: tuple[str, ...], value: str):
    """`doc` with each parameter name in its strings replaced by `(value)`."""
    if isinstance(doc, dict):
        return {k: written(v, params, value) for k, v in doc.items()}
    if isinstance(doc, list):
        return [written(v, params, value) for v in doc]
    return re.sub(r"\b(" + "|".join(params) + r")\b", f"({value})", doc)


class TestParamDifferential:
    """A document run with --param prints what it prints, without --param,
    with each parameter replaced by its value in the text."""

    def same_output(self, tmp_path, capsys, command, doc, fixed_doc, params, value):
        fixed = [arg for p in params for arg in ("--param", f"{p}={value}")]
        got = run(tmp_path, command, doc, *fixed), capsys.readouterr()
        want = run(tmp_path, command, dict(fixed_doc, params=list(params)))
        assert (got[0], got[1].out, got[1].err) == (want, *capsys.readouterr()), command

    @pytest.mark.parametrize("value", ["1/3", "0"])
    @pytest.mark.parametrize("name", [n for n in names() if required_params(n)])
    def test_named_equals_inline_text(self, tmp_path, capsys, name, value):
        params = required_params(name)
        entry = entry_to_dict(catalog(name))
        entry["algebra"].pop("params")
        inline = written({k: v for k, v in entry.items() if k not in ("name", "note")},
                         params, value)
        for command, doc in commands(inline):
            named = {k: name if k in inline else v for k, v in doc.items()}
            self.same_output(tmp_path, capsys, command, named, doc, params, value)

    @pytest.mark.parametrize("value", ["1/3", "0"])
    @pytest.mark.parametrize("command, doc", [
        ("check-rep", {"algebra": "vir", "representation": {
            "module_basis": ["V"], "action": {"L,V": {"V": "b*d + x"}}}}),
        ("cobracket", {"algebra": "vir", "element": {"L": "b*d + 1"},
                       "tensor": {"entries": [{"i": "L", "j": "L", "c": "b*d1 + d2"}]}}),
        ("check-cocycle", {"algebra": "vir", "form": {"matrix": {"L,L": "x^3 + b*x^2"}}}),
    ])
    def test_inline_sections(self, tmp_path, capsys, command, doc, value):
        self.same_output(tmp_path, capsys, command, dict(doc, params=["b"]),
                         written(doc, ("b",), value), ("b",), value)


# parentheses nested past the interpreter's recursion limit
DEEP_NESTING = "(" * 5000 + "x" + ")" * 5000

# with b = 0 the system is inconsistent, but a system declares its own params
SYSTEM_WITH_PARAM = {"params": ["b"], "unknowns": ["u"], "equations": ["b*u + 1"]}

DUPLICATE_ALGEBRA = {"algebra": {"kind": "lie", "basis": ["L", "L"],
                                 "products": {"L,L": {"L": "d+2*x"}}}}


class TestRejectedInput:
    """Malformed input exits 2 with a JSON error, never with a traceback."""

    @pytest.mark.parametrize("command, doc, extra", [
        ("check-axioms", {"algebra": ["L"]}, ()),
        ("check-rb", {"algebra": "hv", "map": ["L"]}, ()),
        ("check-cocycle", {"algebra": "vir", "form": "nosuch"}, ()),
        ("check-axioms", [], ()),
        ("check-axioms", {"algebra": "vir", "params": [1]}, ()),
        ("check-axioms", {"algebra": {"kind": "lie", "basis": ["L"],
                                      "products": {"L,L": {"L": "d+1/0*x"}}}}, ()),
        ("check-rb", {"algebra": "hv", "map": "hv_rb_family1"}, ("--param", "b=1/0")),
        ("check-rb", {"algebra": "hv", "map": "hv_rb_family1"}, ("--weight", "1/0")),
        ("check-axioms", DUPLICATE_ALGEBRA, ()),
        ("check-rep", {"algebra": "vir",
                       "representation": {"module_basis": ["V", "V"], "action": {}}}, ()),
        ("gd-check", {"gd": {"basis": ["a", "a"], "circ": {}, "lie": {}}}, ()),
        ("check-cocycle", {"algebra": "vir", "form": {"matrix": {"L,L": "d"}}}, ()),
        ("build-semidirect", {"algebra": "hv_lsc1", "representation": "regular_left"}, ()),
        ("solve", {"algebra": "vir"}, ()),
        ("solve", {"system": {}}, ()),
        ("catalog", None, ("hv_rb_family1", "--param", "b=2")),
        ("build-semidirect", {"algebra": "vir", "representation": {
            "module_basis": ["L"], "action": {"L,L": {"L": "d+2*x"}}}}, ()),
        ("solve", SYSTEM_WITH_PARAM, ("--param", "b=0")),
    ])
    def test_exit_2(self, tmp_path, capsys, command, doc, extra):
        assert run(tmp_path, command, doc, *extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("command, doc, extra, names", [
        pytest.param("check-axioms", {"algebra": {"basis": ["L"], "products": ["x"]}}, (),
                     "algebra.products", id="list_products"),
        pytest.param("check-rb", {"algebra": "hv", "map": {"L": ["W"]}}, (), "map.L",
                     id="list_map_row"),
        pytest.param("check-rep", {"algebra": "vir",
                                   "representation": {"module_basis": ["V"],
                                                      "action": {"L,V": ["V"]}}}, (),
                     'representation.action["L,V"]', id="list_action_entry"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": 3}}}}, (),
                     'algebra.products["L,L"].L must be a polynomial string, got int',
                     id="number_product"),
        pytest.param("check-cybe", {"algebra": "vir",
                                    "tensor": {"entries": [{"i": "L", "j": "L", "c": 1}]}}, (),
                     "tensor.entries[0].c", id="number_tensor_entry"),
        pytest.param("check-rb", {"algebra": "hv", "map": {"L": {"W": 1}}}, (), "map.L.W",
                     id="number_map_entry"),
        pytest.param("check-cocycle", {"algebra": "vir", "form": {"matrix": {"L,L": 1}}}, (),
                     'form.matrix["L,L"]', id="number_form_entry"),
        pytest.param("cobracket", {"algebra": "vir", "tensor": {"entries": []},
                                   "element": {"L": 1}}, (), "element.L", id="number_element"),
        pytest.param("check-axioms", {"algebra": {"basis": "LW", "products": {}}}, (),
                     "algebra.basis", id="string_basis"),
        pytest.param("check-rep", {"algebra": "vir",
                                   "representation": {"standard": "adjoint", "dual": "no"}},
                     (), "representation.dual", id="string_dual"),
        pytest.param("gd-check", {"gd": {"basis": ["a"], "circ": {"a,a": {"a": 0.5}}}}, (),
                     'gd.circ["a,a"].a must be a rational string or an integer, got float',
                     id="float_constant"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": DEEP_NESTING}}}},
                     (), 'algebra.products["L,L"].L', id="deep_nesting"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": "d+2*x^\u00b2"}}}},
                     (), 'algebra.products["L,L"].L', id="superscript_digit"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"], "products": {
                         "L,L": {"L": "(d+x+y+d1+d2+d3)^40"}}}},
                     (), 'algebra.products["L,L"].L: expansion exceeds the cap',
                     id="parse_product_cap"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": "x^999999999"}}}},
                     (), 'algebra.products["L,L"].L: total degree', id="parse_degree_cap"),
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "-1"), "--window",
                     id="negative_window"),
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "100000"),
                     "Jacobi triples, over the cap of 1000000", id="window_cap"),
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "2", "--shift", "L"),
                     "--shift expects name=integer, got 'L'", id="shift_without_value"),
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "2", "--shift", "L=x"),
                     "--shift expects name=integer, got 'L=x'", id="shift_not_integer"),
        pytest.param("coeff", {"algebra": "hv"},
                     ("--window", "2", "--shift", "L=1", "--shift", "L=2"),
                     "--shift names generator 'L' twice", id="shift_twice"),
        pytest.param("build-semidirect", {"algebra": "vir", "representation": {
                         "module_basis": ["L"], "action": {"L,L": {"L": "d+2*x"}}}}, (),
                     "repeated name(s) L in the algebra's basis", id="semidirect_repeated_names"),
        pytest.param("rb-constraints", {"algebra": "vir"}, ("--degree", "-1"), "--degree",
                     id="negative_degree"),
        pytest.param("rb-constraints", {"algebra": "hv"}, ("--degree", "1000000"),
                     "over the cap of 5000", id="degree_cap"),
        # Fraction would expand 10^3000000 before anything else ran
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=1e3000000"), "--param b exceeds 4300 digits",
                     id="param_exponent_cap"),
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=1e4300"), "--param b exceeds 4300 digits",
                     id="param_digit_cap"),
        pytest.param("check-rb", {"algebra": "vir", "map": {"L": {}}}, ("--weight", "1e-4300"),
                     "--weight exceeds 4300 digits", id="weight_digit_cap"),
        # int() refuses the numeral, and the error names its length, not its digits
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=" + "1" * 4301),
                     "--param b expects a rational, got a text of 4301 characters",
                     id="param_long_text"),
        pytest.param("gd-convert", {"algebra": {"kind": "lie", "basis": ["L"],
                                                "products": {"L,L": {"L": "d+3*x"}}}}, (),
                     "the bracket on (L,L) is not d (b o a) + x (a * b) + [b, a]",
                     id="x_part_not_star"),
        pytest.param("zero-divisors", {"gd": {"basis": [f"e{i}" for i in range(7)],
                                              "circ": {"e0,e0": {"e0": 1}}}}, (),
                     "[-3, 3]^7 holds 823543 vectors, over the cap of 117649",
                     id="probe_cap"),
        # each reader accepts only the variables of its object's grammar
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": "d1"}}}}, (),
                     'algebra.products["L,L"].L may use only d, x and parameters, got d1',
                     id="product_slot_variable"),
        *(pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                    "products": {"L,L": {"L": text}}}}, (),
                       'algebra.products["L,L"].L: coefficients may exceed the cap of 4300 digits',
                       id=f"coefficient_cap_{i}")
          for i, text in enumerate(("(2^99999)^99999*d + 2*x", "2^20000*d + x",
                                    f"1/{10 ** 4299 + 1}*d + 1/{10 ** 4299 + 3}*x"))),
        pytest.param("check-rep", {"algebra": "vir",
                                   "representation": {"module_basis": ["V"],
                                                      "action": {"L,V": {"V": "d1"}}}}, (),
                     'representation.action["L,V"].V may use only d, x and parameters, got d1',
                     id="action_slot_variable"),
        pytest.param("t-from-r", {"algebra": "hv_lsc1_skew_r",
                                  "tensor": {"entries": [{"i": "L", "j": "W", "c": "x"}]}}, (),
                     "tensor.entries[0].c may use only d1, d2 and parameters, got x",
                     id="tensor_entry_x"),
        pytest.param("r-from-t", {"algebra": "hv",
                                  "representation": {"standard": "adjoint", "dual": True},
                                  "map": {"L*": {"L": "y"}}}, (),
                     "map.L*.L may use only d, x and parameters, got y", id="map_entry_y"),
        pytest.param("cobracket", {"algebra": "vir", "tensor": {"entries": []},
                                   "element": {"L": "d1"}}, (),
                     "element.L may use only d and parameters, got d1", id="element_slot_variable"),
        pytest.param("solve", SYSTEM_WITH_PARAM, ("--param", "b=0"), "solve takes no --param",
                     id="solve_param"),
        # a catalog map reads by its algebra's basis names, as an inline one does
        pytest.param("check-o-operator", {"algebra": "hv",
                                          "representation": {"standard": "adjoint", "dual": True},
                                          "map": "hv_rb_family1"}, (),
                     "unknown basis name 'L' in map", id="catalog_map_dual_module"),
    ])
    def test_exit_2_names_the_path(self, tmp_path, capsys, command, doc, extra, names):
        assert run(tmp_path, command, doc, *extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert names in json.loads(err)["error"]
        assert "1" * 100 not in err

    def test_unwritable_out_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert run(tmp_path, "check-axioms", {"algebra": "hv"}, "--out", str(out)) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == f"InputError: cannot write --out {out}: No such file or directory"

    def test_undecodable_input(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"algebra": "\xff"}')
        assert main(["check-axioms", "--in", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith("InputError: cannot read input: 'utf-8' codec can't decode")

    def test_deeply_nested_document(self, tmp_path, capsys):
        """The JSON decoder recurses once per nested array."""
        path = tmp_path / "in.json"
        path.write_text("[" * 1000)
        assert main(["check-axioms", "--in", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith("InputError: cannot read input: maximum recursion depth")

    def test_repeated_names_only_rejected_at_the_boundary(self):
        from confalg import ConformalAlgebra, VarTable
        from confalg.io_json import InputError, gd_from_dict
        t = VarTable()
        with pytest.raises(InputError, match="repeated"):
            algebra_from_dict(DUPLICATE_ALGEBRA["algebra"], t)
        with pytest.raises(InputError, match="repeated"):
            gd_from_dict({"basis": ["a", "a"]}, t)
        # constructions such as the dual-adjoint tower repeat names legitimately
        A = ConformalAlgebra("lie", ("L", "L"), t, {})
        assert A.basis == ("L", "L")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(tmp_path, command, doc=None, *extra, code=None):
    """`command` in a fresh interpreter; its exit code, stdout and stderr.
    With `code`, the child runs that script with `command` and the rest as
    its arguments instead of the front end."""
    argv = [command]
    if doc is not None:
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(doc))
        argv += ["--in", str(path)]
    head = ["-c", code] if code else ["-m", "confalg.cli"]
    child = subprocess.run([sys.executable, *head, *argv, *extra], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    return child.returncode, child.stdout, child.stderr


class TestFreshProcess:
    """A subcommand loads only the modules it runs, so its errors are caught
    without the modules that raise them being imported up front.  In-process
    tests cannot see this: the test process has every module loaded."""

    @pytest.mark.parametrize("command, doc, extra, error", [
        ("gd-convert", {"algebra": "hv_lsc1"}, (), "NotQuadratic"),
        ("cocycle-from-r", {"algebra": "vir", "tensor": {"L": {"L": "0"}}}, ("--kind", "lie"),
         "NotInvertible"),
        ("form-suite", {"algebra": {"kind": "lie", "basis": ["A", "B"], "products": {}},
                        "form": {"matrix": {"A,A": "1"}},
                        "tensor": {"entries": [{"i": "A", "j": "B", "c": "d1"}]}}, (),
         "DegenerateForm"),
        ("check-axioms", {"algebra": "nosuch"}, (), "UnknownEntry"),
    ])
    def test_exit_2(self, tmp_path, command, doc, extra, error):
        code, out, err = fresh(tmp_path, command, doc, *extra)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"].startswith(f"{error}: ")

    # runs the front end, then prints the modules it loaded
    LOADED = ("import json, sys\n"
              "from confalg.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")

    def loaded(self, tmp_path, command, doc, *extra):
        out_file = tmp_path / f"{command}.out.json"
        code, out, err = fresh(tmp_path, command, doc, *extra, "--out", str(out_file),
                               code=self.LOADED)
        assert err == "" and json.loads(out)[0] in (0, 1)
        return {m.removeprefix("confalg.") for m in json.loads(out)[1]}

    def test_subcommands_load_only_what_they_run(self, tmp_path, bare_modules):
        family1 = {"algebra": "hv", "map": "hv_rb_family1"}
        # unless a bare interpreter loads them too
        startup = {"dataclasses", "inspect"} - bare_modules
        assert not self.loaded(tmp_path, "check-axioms", {"algebra": "hv"}) & {
            "operators", "gd", "tensor", "reps", "linmap", "coeff", *startup}
        assert not self.loaded(tmp_path, "coeff", family1, "--window", "2") & {
            "operators", "gd", "tensor", "reps", *startup}
        without = {"gd", "coeff", "reps", "tensor"}
        assert not self.loaded(tmp_path, "check-rb", family1) & without
        assert not self.loaded(tmp_path, "rb-constraints", {"algebra": "vir"},
                               "--degree", "2") & without
        system = json.loads((tmp_path / "rb-constraints.out.json").read_text())
        assert not self.loaded(tmp_path, "solve", system) & without
        # the rb mode of induced_lsc builds its table without the representation module
        assert not self.loaded(tmp_path, "catalog", None, "hv_lsc1") & without
