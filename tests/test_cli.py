import json

import pytest

from confalg import (
    BilinearForm,
    UnknownEntry,
    catalog,
    check_axioms,
    check_gd,
    check_rep,
    check_rota_baxter,
    cybe_residual,
    rb_constraints,
    s_residual,
    t_from_r,
)
from confalg.catalog import builtin_representations, names
from confalg.cli import main
from confalg.io_json import (
    algebra_from_dict,
    algebra_to_dict,
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

    def test_parameter_values(self):
        entry = catalog("hv_rb_family1", values={"b": 2})
        assert check_rota_baxter(entry.algebra, entry.linmap, 0).ok
        assert entry.linmap.matrix[0][0] == -2

    def test_builtin_reps_pass(self):
        for name, rep in builtin_representations().items():
            assert check_rep(rep).ok, name


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

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"algebra": "vir"}))
        assert main(["check-axioms", "--in", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True

    def test_param_substitution(self, tmp_path):
        assert run(tmp_path, "check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                   "--param", "b=3") == 0

    def test_weight_free(self, tmp_path):
        doc = {"algebra": "vir", "map": {"L": {}}}
        assert run(tmp_path, "check-rb", doc, "--weight", "free") == 0


# parentheses nested past the interpreter's recursion limit
DEEP_NESTING = "(" * 5000 + "x" + ")" * 5000

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
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "-1"), "--window",
                     id="negative_window"),
        pytest.param("rb-constraints", {"algebra": "vir"}, ("--degree", "-1"), "--degree",
                     id="negative_degree"),
    ])
    def test_exit_2_names_the_path(self, tmp_path, capsys, command, doc, extra, names):
        assert run(tmp_path, command, doc, *extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert names in json.loads(err)["error"]

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
