import json
import os
import re
import subprocess
import sys
import time
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
from confalg import cli
from confalg.cli import COMMANDS, main
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
from conftest import load_benchmark


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

    def test_entries_match_the_golden_file(self):
        """Every entry's document, indented as the CLI prints it, equals the
        text in tests/golden/catalog.json byte for byte."""
        golden = Path(__file__).resolve().parent / "golden" / "catalog.json"
        doc = {name: entry_to_dict(catalog(name)) for name in names()}
        assert json.dumps(doc, indent=2) + "\n" == golden.read_text()


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


# a skew-symmetric rank-1 table that is not Lie, with x^2 and x^3 terms, and a map
SKEW_CUBIC = {"params": ["b"], "map": {"L": {"L": "b*d+1"}},
              "algebra": {"kind": "lie", "basis": ["L"],
                          "products": {"L,L": {"L": "(d+2*x)*(x^2+x*d)"}}}}
# a rank-2 table whose entries hold the parameter b in their d-split cofactors,
# and a map holding b*d and b^2
B_TABLE = {"params": ["b"],
           "map": {"L": {"L": "b+1", "W": "b*d"}, "W": {"L": "b", "W": "b^2"}},
           "algebra": {"kind": "lie", "basis": ["L", "W"],
                       "products": {"L,L": {"L": "d+2*x"}, "L,W": {"W": "b*d+b*x"},
                                    "W,L": {"L": "b", "W": "x-b*d"},
                                    "W,W": {"L": "b*x^2", "W": "1"}}}}


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

    def test_form_without_a_kind_takes_its_algebras(self, tmp_path, capsys):
        """A left-symmetric algebra's form without a kind is checked as an lsc
        cocycle; a kind that does not match the algebra exits 2."""
        doc = {"algebra": "hv_lsc1_sym_r", "tensor": "hv_lsc1_sym_r"}
        assert run(tmp_path, "cocycle-from-r", doc, "--kind", "lsc") == 0
        form = json.loads(capsys.readouterr().out)
        del form["kind"]
        assert run(tmp_path, "check-cocycle", {"algebra": "hv_lsc1_sym_r", "form": form}) == 0
        form["kind"] = "lie"
        assert run(tmp_path, "check-cocycle", {"algebra": "hv_lsc1_sym_r", "form": form}) == 2

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

    @pytest.mark.parametrize("name, doc, argv, code", [
        ("hv_rb_family1.N4", {"algebra": "hv", "map": "hv_rb_family1"},
         ["--window", "4", "--shift", "L=1", "--shift", "W=0"], 0),
        ("hv_rb_family2.N4", {"algebra": "hv", "map": "hv_rb_family2"},
         ["--window", "4", "--shift", "L=1", "--shift", "W=0"], 0),
        ("skew.N3", SKEW_CUBIC, ["--window", "3", "--shift", "L=1"], 1),
        ("b_table.N1", B_TABLE, ["--weight", "free", "--window", "1", "--shift", "L=1"], 1),
    ])
    def test_coeff_golden(self, tmp_path, capsys, name, doc, argv, code):
        """coeff prints the text in tests/golden byte for byte.  The skew cubic
        table fails Jacobi and the lifted identity, so residuals that hold its
        x^2 and x^3 terms are printed; the b table fails all three checks with
        residuals that hold b^2 to b^5 and the free weight alpha."""
        golden = Path(__file__).resolve().parent / "golden"
        assert run(tmp_path, "coeff", doc, *argv) == code
        out = capsys.readouterr()
        assert (out.out, out.err) == ((golden / f"coeff.{name}.json").read_text(), "")

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


def fields(command, handler, **given):
    """The namespace fields of a `command` line: the command, its handler's
    name, --in, --out and --param unless `given`, and the rest of `given`."""
    return {"command": command, "handler": handler, "infile": None, "out": None, "param": None,
            **given}


# perfbench's cli jobs by key, as the command line reads them; the paths are
# the templates the workload fills in
CLI_JOB_FIELDS = {
    "check_axioms.hv": fields("check-axioms", "cmd_check_axioms", infile="{doc:hv}"),
    "check_axioms.vir_inline": fields("check-axioms", "cmd_check_axioms",
                                      infile="{doc:vir_inline}"),
    "check_axioms.mutant_inline": fields("check-axioms", "cmd_check_axioms",
                                         infile="{doc:mutant_inline}"),
    "check_rb.family1.weight0": fields("check-rb", "cmd_check_rb", infile="{doc:hv_family1}",
                                       weight="0"),
    "check_rb.family1.weight0.b_1_3": fields("check-rb", "cmd_check_rb",
                                             infile="{doc:hv_family1}", weight="0",
                                             param=["b=1/3"]),
    "check_rb.family1.weight_free": fields("check-rb", "cmd_check_rb",
                                           infile="{doc:hv_family1}", weight="free"),
    "check_rb.family1_inline.b_1_3": fields("check-rb", "cmd_check_rb",
                                            infile="{doc:hv_family1_inline}", weight="0",
                                            param=["b=1/3"]),
    "check_cybe.lsc1_skew": fields("check-cybe", "cmd_check_cybe", infile="{doc:lsc1_skew}"),
    "check_cybe.lsc1_skew.b_1_3": fields("check-cybe", "cmd_check_cybe",
                                         infile="{doc:lsc1_skew}", param=["b=1/3"]),
    "check_s.lsc2_sym": fields("check-s", "cmd_check_s", infile="{doc:lsc2_sym}"),
    "check_o_operator.family1": fields("check-o-operator", "cmd_check_o_operator",
                                       infile="{doc:hv_adjoint_family1}", ker=False),
    "coeff.window4.family1": fields("coeff", "cmd_coeff", infile="{doc:hv_family1}", window=4,
                                    shift=["L=1", "W=0"], weight="0"),
    "catalog.hv_lsc1": fields("catalog", "cmd_catalog", name="hv_lsc1"),
    "catalog.hv_lsc2_sym_r": fields("catalog", "cmd_catalog", name="hv_lsc2_sym_r"),
    "cocycle_from_r.lsc1_skew": fields("cocycle-from-r", "cmd_cocycle_from_r",
                                       infile="{doc:lsc1_skew}", kind="lie"),
    "rb_constraints.vir.D2": fields("rb-constraints", "cmd_rb_constraints", infile="{doc:vir}",
                                    out="{out:vir_system}", degree=2, weight="0"),
    "solve.vir.D2": fields("solve", "cmd_solve", infile="{out:vir_system}"),
    "rb_constraints.hv.D2": fields("rb-constraints", "cmd_rb_constraints", infile="{doc:hv}",
                                   out="{out:hv_system}", degree=2, weight="0"),
    "solve.hv.D2": fields("solve", "cmd_solve", infile="{out:hv_system}"),
    **{f"reject.{key}": fields("check-axioms", "cmd_check_axioms", infile=f"{{doc:{doc}}}")
       for key, doc in [("unknown_entry", "unknown_entry"), ("malformed_json", "malformed"),
                        ("list_algebra", "list_algebra"), ("zero_denominator", "zero_denominator"),
                        ("duplicate_basis", "duplicate_basis")]},
}


def read(argv):
    """The namespace fields the command line `argv` reads as, the handler by name."""
    args = vars(cli._parse(argv))
    return {**args, "handler": args["handler"].__name__}


class TestCommandLine:
    """The command line is read against COMMANDS into the fields argparse gave
    each command: no more, with the same defaults."""

    def test_benchmark_jobs(self):
        jobs = {key: argv for group in load_benchmark("workloads").CLI_GROUPS
                for key, argv in group}
        assert jobs.keys() == CLI_JOB_FIELDS.keys()
        for key, argv in jobs.items():
            assert read(argv) == CLI_JOB_FIELDS[key], key

    @pytest.mark.parametrize("argv, expected", [
        # the README's command block
        ("check-axioms --in algebra.json",
         fields("check-axioms", "cmd_check_axioms", infile="algebra.json")),
        ("check-rb --in doc.json --weight 0",
         fields("check-rb", "cmd_check_rb", infile="doc.json", weight="0")),
        ("check-cybe --in doc.json", fields("check-cybe", "cmd_check_cybe", infile="doc.json")),
        ("check-s --in doc.json", fields("check-s", "cmd_check_s", infile="doc.json")),
        ("check-o-operator --in doc.json --ker",
         fields("check-o-operator", "cmd_check_o_operator", infile="doc.json", ker=True)),
        ("build-semidirect", fields("build-semidirect", "cmd_build_semidirect")),
        ("build-dual", fields("build-dual", "cmd_build_dual")),
        ("r-from-t --mode sym", fields("r-from-t", "cmd_r_from_t", mode="sym")),
        ("r-from-t", fields("r-from-t", "cmd_r_from_t", mode="skew")),
        ("t-from-r", fields("t-from-r", "cmd_t_from_r")),
        ("cobracket", fields("cobracket", "cmd_cobracket")),
        ("cocycle-from-r --kind lsc", fields("cocycle-from-r", "cmd_cocycle_from_r", kind="lsc")),
        ("check-cocycle", fields("check-cocycle", "cmd_check_cocycle")),
        ("form-suite", fields("form-suite", "cmd_form_suite")),
        ("rb-constraints --degree 3 --weight free",
         fields("rb-constraints", "cmd_rb_constraints", degree=3, weight="free")),
        ("solve", fields("solve", "cmd_solve")),
        ("gd-convert", fields("gd-convert", "cmd_gd_convert")),
        ("gd-check", fields("gd-check", "cmd_gd_check", weight="0")),
        ("zero-divisors", fields("zero-divisors", "cmd_zero_divisors")),
        ("coeff --window 4 --shift L=1 --shift W=0",
         fields("coeff", "cmd_coeff", window=4, shift=["L=1", "W=0"], weight="0")),
        ("catalog hv", fields("catalog", "cmd_catalog", name="hv")),
        # --flag=value, which splits at the first "="
        ("check-rb --in=doc.json --weight=-1/2 --param=b=1/3",
         fields("check-rb", "cmd_check_rb", infile="doc.json", weight="-1/2", param=["b=1/3"])),
        ("rb-constraints --degree=2 --out=s.json",
         fields("rb-constraints", "cmd_rb_constraints", out="s.json", degree=2, weight="0")),
        ("cocycle-from-r --kind=lie", fields("cocycle-from-r", "cmd_cocycle_from_r", kind="lie")),
        ("check-axioms --in=", fields("check-axioms", "cmd_check_axioms", infile="")),
        # the positional before and after a flag
        ("catalog --param b=1 hv", fields("catalog", "cmd_catalog", name="hv", param=["b=1"])),
        ("catalog hv --param b=1", fields("catalog", "cmd_catalog", name="hv", param=["b=1"])),
        # a value that begins with "-", which argparse took only as --weight=-1/2
        ("check-rb --weight -1/2", fields("check-rb", "cmd_check_rb", weight="-1/2")),
        ("rb-constraints --degree -1",
         fields("rb-constraints", "cmd_rb_constraints", degree=-1, weight="0")),
        # a repeated single-value flag keeps its last value; --param collects
        ("check-axioms --in a.json --in b.json",
         fields("check-axioms", "cmd_check_axioms", infile="b.json")),
        ("check-o-operator --ker --ker", fields("check-o-operator", "cmd_check_o_operator",
                                                ker=True)),
        ("check-s --param b=1 --param c=free",
         fields("check-s", "cmd_check_s", param=["b=1", "c=free"])),
    ])
    def test_accepted(self, argv, expected):
        assert read(argv.split(" ")) == expected

    @pytest.mark.parametrize("argv, named", [
        ([], "a command is required"),
        (["nosuch", "--in", "x"], "'nosuch'"),
        (["--in", "x", "check-axioms"], "'--in'"),
        (["check-axioms", "--bogus"], "'--bogus'"),
        (["rb-constraints", "--deg", "2"], "'--deg'"),  # abbreviated
        (["check-axioms", "-i", "x"], "'-i'"),
        (["check-rb", "--in", "x", "--weight"], "--weight"),
        (["check-o-operator", "--ker=yes"], "'--ker=yes'"),
        (["rb-constraints", "--degree", "two"], "'two'"),
        (["coeff", "--window", "9" * 4301], "--window expects an integer, got a text of 4301"),
        (["r-from-t", "--mode", "skw"], "'skw'"),
        (["cocycle-from-r", "--kind=LIE"], "'LIE'"),
        (["cocycle-from-r", "--in", "x"], "--kind"),
        (["rb-constraints", "--weight", "1"], "--degree"),
        (["catalog", "--param", "b=1"], "NAME"),
        (["check-axioms", "hv"], "'hv'"),
        (["catalog", "hv", "vir"], "'vir'"),
    ])
    def test_refused(self, capsys, argv, named):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
        error = json.loads(err)["error"]
        assert error.startswith("UsageError: ") and named in error

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check-rb", "--in", "x", "-h"],
                                      ["nosuch", "--help"]])
    def test_help(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: confalg COMMAND")
        listed = {line.split()[0] for line in out.splitlines()
                  if line.startswith("  ") and not line.startswith("   ")}
        assert listed == set(COMMANDS)
        assert "  coeff --window WINDOW [--shift SHIFT]... [--weight WEIGHT]\n" in out
        assert "  r-from-t [--mode skew|sym|raw]\n" in out and "  catalog NAME\n" in out

    def test_every_handler_has_a_command(self):
        required = {"cocycle-from-r": ["--kind", "lie"], "rb-constraints": ["--degree", "1"],
                    "coeff": ["--window", "1"], "catalog": ["hv"]}
        handlers = [read([command, *required.get(command, [])])["handler"] for command in COMMANDS]
        assert sorted(handlers) == sorted(name for name in vars(cli) if name.startswith("cmd_"))

    def test_handler_is_looked_up_when_the_command_runs(self, monkeypatch, capsys):
        """A wrapper put on a handler after import, as perfbench's tracer puts
        one, is the one that runs."""
        calls = []
        original = cli.cmd_catalog

        def wrapped(sess, args):
            calls.append(args.name)
            return original(sess, args)

        monkeypatch.setattr(cli, "cmd_catalog", wrapped)
        assert main(["catalog", "hv"]) == 0 and calls == ["hv"]


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


def regular_bimodule():
    """hv_lsc1 and its regular bimodule, on primed names: the left action is
    the algebra's products, the right one regular_right's table."""
    from confalg import standard_rep
    from confalg.reps import Representation
    A = catalog("hv_lsc1").algebra
    right = standard_rep(A, "regular_right").rho
    return A, Representation(A, tuple(n + "'" for n in A.basis), left=dict(A.products),
                             right=right)


class TestBimodule:
    """A left-symmetric module read from action_l and action_r."""

    def test_round_trip(self):
        from confalg import check_rep
        A, rep = regular_bimodule()
        assert len(rep.right) == 4 and check_rep(rep).ok
        doc = rep_to_dict(rep)
        assert set(doc) == {"module_basis", "action_l", "action_r"}
        assert rep_from_dict(doc, A) == rep

    def test_check_rep_and_semidirect(self, tmp_path, capsys):
        from confalg.reps import semidirect
        A, rep = regular_bimodule()
        doc = {"algebra": "hv_lsc1", "representation": rep_to_dict(rep)}
        assert run(tmp_path, "check-rep", doc) == 0
        capsys.readouterr()
        assert run(tmp_path, "build-semidirect", doc) == 0
        assert capsys.readouterr().out == json.dumps(algebra_to_dict(semidirect(A, rep)),
                                                     indent=2) + "\n"

    def test_bumped_right_action_fails(self, tmp_path, capsys):
        _, rep = regular_bimodule()
        doc = {"algebra": "hv_lsc1", "representation": rep_to_dict(rep)}
        doc["representation"]["action_r"]["W,L'"]["W'"] += " + d"
        assert run(tmp_path, "check-rep", doc) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["ok"]) for c in checks] == [
            ("left_action_axiom", True), ("right_action_axiom", False)]

    def test_list_action_is_bad_input(self, tmp_path, capsys):
        _, rep = regular_bimodule()
        doc = {"algebra": "hv_lsc1", "representation": rep_to_dict(rep)}
        doc["representation"]["action_l"] = ["L'"]
        assert run(tmp_path, "check-rep", doc) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "InputError: representation.action_l must be an object, got list"}


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

# the first equation fixes u = 10^4000, and the second reduces to 10^8000 - 1
BIG_CONSTANT_SYSTEM = {"unknowns": ["u"], "equations": ["u - 10^4000", "u^2 - 1"]}


def squaring_chain(k):
    """a1 = b1 + b2 + b3 + b4 and a_j = a_(j-1)^2 up to j = k: solving to a6
    would take about 970,000 term products, past the cap of 200,000."""
    return {"params": ["b1", "b2", "b3", "b4"], "unknowns": [f"a{j}" for j in range(1, k + 1)],
            "equations": ["a1 - (b1 + b2 + b3 + b4)"]
            + [f"a{j} - a{j - 1}^2" for j in range(2, k + 1)]}


def degree_chain(k):
    """v_i + v_(i+1)^2 for i < k: one term product per step, and the degree of
    v0's value doubles each step, to 2^k."""
    return {"params": [f"v{k}"], "unknowns": [f"v{i}" for i in range(k)],
            "equations": [f"v{i} + v{i + 1}^2" for i in range(k)]}


def big_witness_gd():
    """A 2-dimensional bialgebra whose zero-divisor witness has coordinates of
    more than 4300 digits: p1, q1, p2, q2 are odd numbers of 2,200 digits, each
    pair coprime, and each entry one reduced rational numeral."""
    base = 10 ** 2199
    p1, q1, p2, q2 = base + 1, base + 3, base + 7, base + 9
    return {"gd": {"basis": ["a", "b"], "circ": {
        "b,a": {"a": f"{p1}/{q1}", "b": f"{2 * p1}/{q1}"},
        "b,b": {"a": f"{p2}/{2 * q2}", "b": f"{p2}/{q2}"}}}}


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
        pytest.param("check-axioms", {"params": ["d3"], "algebra": {"basis": ["L"], "products": {
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
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=1/3", "--param", "b=free"),
                     "--param names parameter 'b' twice", id="param_value_then_free"),
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=free", "--param", "b=1/3"),
                     "--param names parameter 'b' twice", id="param_free_then_value"),
        pytest.param("check-rb", {"algebra": "hv", "map": "hv_rb_family1"},
                     ("--param", "b=1", "--param", "b=2"),
                     "--param names parameter 'b' twice", id="param_value_then_value"),
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
        pytest.param("check-rb", {"algebra": "hv", "map": {"L": {"W": "x*d"}}}, (),
                     "map.L.W may use only d and parameters, got x", id="module_map_x"),
        pytest.param("check-cocycle", {"algebra": "hv", "form": {"matrix": {"L,W": "d"}}}, (),
                     'form.matrix["L,W"] may use only x and parameters, got d', id="form_entry_d"),
        # a pair key splits at commas and strips its parts, so no key could address these
        pytest.param("build-semidirect", {"algebra": "hv", "representation": {
                         "module_basis": ["u,v"], "action": {"L,u,v": {"u,v": "x"}}}}, (),
                     "representation.module_basis name 'u,v' holds a comma",
                     id="basis_name_comma"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L", " W"],
                                                  "products": {"L,L": {"L": "d+2*x"}}}}, (),
                     "algebra.basis name ' W' holds a comma or surrounding whitespace",
                     id="basis_name_whitespace"),
        pytest.param("solve", SYSTEM_WITH_PARAM, ("--param", "b=0"), "solve takes no --param",
                     id="solve_param"),
        # numbers past int()'s 4300 digits are named by the package's cap, not printed
        pytest.param("zero-divisors", big_witness_gd(), (),
                     "PolyError: a coefficient exceeds 4300 digits, the cap on a printed numeral",
                     id="witness_digit_cap"),
        pytest.param("gd-convert", {"params": ["b"], "algebra": {
                         "kind": "lie", "basis": ["L"],
                         "products": {"L,L": {"L": "b^2*d + 2*b^2*x"}}}},
                     ("--param", "b=1" + "0" * 4000),
                     "PolyError: a coefficient exceeds 4300 digits", id="gd_constant_digit_cap"),
        pytest.param("rb-constraints", {"algebra": "hv"}, ("--degree", "1" + "0" * 2200),
                     "= a number of more than 4300 digits is over the cap of 5000",
                     id="degree_digit_cap"),
        pytest.param("coeff", {"algebra": "hv"}, ("--window", "1" + "0" * 1500),
                     "needs a number of more than 4300 digits Jacobi triples",
                     id="window_digit_cap"),
        # a precondition that fails names its first failing check and instance
        pytest.param("build-semidirect", {"algebra": "vir", "representation": {
                         "module_basis": ["L"], "action": {"L,L": {"L": "2*d+2*x"}}}}, (),
                     "PreconditionError: module axioms fail: module_axiom at (L,L;L)->L",
                     id="semidirect_bumped_action"),
        # a catalog map reads by its algebra's basis names, as an inline one does
        pytest.param("check-o-operator", {"algebra": "hv",
                                          "representation": {"standard": "adjoint", "dual": True},
                                          "map": "hv_rb_family1"}, (),
                     "unknown basis name 'L' in map", id="catalog_map_dual_module"),
        # an unknown name is reported as unknown whatever the algebra's kind
        *(pytest.param("check-rep", {"algebra": algebra, "representation": "nosuch"}, (),
                       "AlgebraError: unknown standard representation 'nosuch'",
                       id=f"unknown_standard_rep_{algebra}") for algebra in ("vir", "hv_lsc1")),
        pytest.param("gd-check", {"gd": {"basis": ["a"], "circ": {"a,a": {"a": "x"}}}}, (),
                     """gd.circ["a,a"].a must be a rational, got 'x'""", id="gd_constant_text"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"], "products": {"L": {"L": "d"}}}},
                     (), "bad key 'L' in algebra.products", id="product_key_not_a_pair"),
        pytest.param("check-axioms", {"algebra": {"kind": "assoc", "basis": ["L"]}}, (),
                     "unknown algebra kind 'assoc'", id="unknown_algebra_kind"),
        pytest.param("check-rep", {"algebra": "vir", "representation": {"standard": 3}}, (),
                     "representation.standard must be a name, got int", id="standard_not_a_name"),
        pytest.param("check-rep", {"algebra": "vir", "representation": {"module_basis": ["v"]}},
                     (), "representation needs action or action_l/action_r",
                     id="representation_without_action"),
        pytest.param("check-cybe", {"algebra": "vir", "tensor": {
                         "entries": [{"i": "L", "j": "Q", "c": "1"}]}}, (),
                     "tensor.entries[0] needs basis names i and j, got 'L', 'Q'",
                     id="tensor_entry_unknown_name"),
        pytest.param("check-cocycle", {"algebra": "vir", "form": {"kind": "assoc", "matrix": {}}},
                     (), "unknown form kind 'assoc'", id="unknown_form_kind"),
        pytest.param("check-axioms", {"algebra": "vir"}, ("--param", "b"),
                     "--param expects name=value|free, got 'b'", id="param_without_value"),
        pytest.param("check-cybe", {"algebra": "vir", "tensor": "vir"}, (),
                     "catalog entry 'vir' has no tensor", id="catalog_entry_without_tensor"),
        pytest.param("coeff", {"algebra": "vir"}, ("--window", "1", "--shift", "Q=1"),
                     "unknown generator 'Q' in --shift", id="shift_unknown_generator"),
        pytest.param("coeff", {"algebra": "hv_lsc1"}, ("--window", "1"),
                     "window checks expect a Lie-kind algebra", id="window_left_symmetric"),
        pytest.param("check-o-operator", {"algebra": "hv_lsc1", "map": {}, "representation": {
                         "module_basis": ["v"], "action": {}}}, (),
                     "O-operators are defined against a Lie-kind representation",
                     id="o_operator_left_symmetric"),
        pytest.param("cocycle-from-r", {"algebra": "hv_lsc1_skew_r", "tensor": "hv_lsc1_skew_r"},
                     ("--kind", "lsc"), "an lsc-kind cocycle needs a symmetric tensor",
                     id="lsc_cocycle_skew_tensor"),
        pytest.param("form-suite", {"algebra": "hv_lsc1", "form": {"matrix": {}}}, (),
                     "the invariant form suite expects a Lie-kind algebra",
                     id="form_suite_left_symmetric"),
        pytest.param("check-s", {"algebra": "vir", "tensor": {"entries": []}}, (),
                     "the conformal S-equation lives in a left-symmetric algebra",
                     id="s_equation_on_lie"),
        pytest.param("rb-constraints", {"params": ["t0_0_0"], "algebra": {
                         "kind": "lie", "basis": ["L"], "products": {"L,L": {"L": "d+2*x"}}}},
                     ("--degree", "0"), "unknown name t0_0_0 collides with an existing variable",
                     id="param_named_like_an_unknown"),
        pytest.param("check-axioms", {"algebra": "vir", "params": ["1x"]}, (),
                     "invalid parameter name '1x'", id="invalid_param_name"),
        pytest.param("check-axioms", {"algebra": "vir", "params": ["d"]}, (),
                     "duplicate or reserved parameter name 'd'", id="reserved_param_name"),
        pytest.param("check-axioms", {"algebra": {"basis": ["L"],
                                                  "products": {"L,L": {"L": "d x"}}}}, (),
                     'algebra.products["L,L"].L: trailing input at token 1', id="trailing_input"),
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

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        """An integer of more than 4300 digits is refused by the package's cap."""
        path = tmp_path / "in.json"
        path.write_text('{"algebra": ' + "1" * 5000 + "}")
        assert main(["check-axioms", "--in", str(path)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == ("InputError: cannot read input: a JSON integer of 5000 digits"
                         " exceeds the cap of 4300 digits")

    def test_oversize_witness_is_computed(self):
        """The witness_digit_cap document's probe finds a witness that str()
        would refuse: the exit 2 comes from printing it."""
        from confalg import VarTable, zero_divisor_probe
        probe = zero_divisor_probe(gd_from_dict(big_witness_gd()["gd"], VarTable()))
        assert probe.status == "witness"
        assert max(max(abs(c.numerator), c.denominator)
                   for vec in probe.witness for c in vec) >= 10 ** 4300

    def test_inconsistent_past_the_digit_limit(self, tmp_path, capsys):
        """A constant too long to print still decides the system: exit 1, and
        the reason names the package's cap."""
        assert run(tmp_path, "solve", BIG_CONSTANT_SYSTEM) == 1
        out = capsys.readouterr()
        assert json.loads(out.out) == {
            "status": "inconsistent",
            "reason": "equation reduces to a number of more than 4300 digits"}
        assert out.err == ""

    @pytest.mark.parametrize("k", [6, 7])
    def test_squaring_chain_is_refused_quickly(self, tmp_path, capsys, k):
        start = time.process_time()
        assert run(tmp_path, "solve", squaring_chain(k)) == 2
        assert time.process_time() - start < 0.5
        assert json.loads(capsys.readouterr().err) == {
            "error": "PreconditionError: elimination exceeds the cap of 200000 term products"}

    def test_degree_chain_is_refused_quickly(self, tmp_path, capsys):
        start = time.process_time()
        assert run(tmp_path, "solve", degree_chain(40)) == 2
        assert time.process_time() - start < 0.5
        assert capsys.readouterr().err == json.dumps({
            "error": "PreconditionError: elimination reaches total degree 128, "
                     "over the cap of 100"}) + "\n"

    def test_value_error_is_not_bad_input(self, tmp_path, monkeypatch):
        """Report.sweep raises ValueError on a key outside its axes, a program
        fault: main lets it through instead of exiting 2."""
        import confalg.algebra
        from confalg import Poly, Report
        from confalg.cli import USAGE_ERRORS

        def broken_check(A):
            report = Report()
            report.sweep("broken", (A.basis,), {(A.rank,): Poly.const(A.table, 1)})
            return report

        monkeypatch.setattr(confalg.algebra, "check_axioms", broken_check)
        assert ValueError not in USAGE_ERRORS
        with pytest.raises(ValueError, match="outside its axes"):
            run(tmp_path, "check-axioms", {"algebra": "vir"})

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

    def test_names_are_read_in_linear_time(self):
        from confalg import VarTable
        from confalg.io_json import InputError, gd_from_dict
        t = VarTable()
        with pytest.raises(InputError, match=r"repeated name\(s\) a, b in gd.basis"):
            gd_from_dict({"basis": ["b", "c", "a", "b", "a", "b"]}, t)
        names = [f"e{i}" for i in range(20000)]
        start = time.process_time()
        assert algebra_from_dict({"kind": "lie", "basis": names}, t).rank == 20000
        assert time.process_time() - start < 0.5


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
        # a Jacobi coefficient near 2^28000, too long to print
        ("check-axioms", {"algebra": {"basis": ["L"], "products": {"L,L": {"L": "2^14000*d + x"}}}},
         (), "PolyError"),
    ])
    def test_exit_2(self, tmp_path, command, doc, extra, error):
        code, out, err = fresh(tmp_path, command, doc, *extra)
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert json.loads(err)["error"].startswith(f"{error}: ")

    def test_usage_error(self, tmp_path):
        code, out, err = fresh(tmp_path, "rb-constraints", {"algebra": "vir"}, "--deg", "2")
        assert (code, out) == (2, "") and len(err.splitlines()) == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "UsageError: rb-constraints does not take '--deg'"

    def test_help(self, tmp_path):
        code, out, err = fresh(tmp_path, "--help")
        assert (code, err) == (0, "") and out.startswith("usage: confalg COMMAND")

    def test_writes_what_main_writes(self, tmp_path, capsys):
        """The front end's stdout, --out file, stderr and exit code are those
        of ``main`` in-process."""
        hv = {"algebra": "hv"}
        assert fresh(tmp_path, "check-axioms", hv) == (
            run(tmp_path, "check-axioms", hv), *capsys.readouterr())
        out, inproc = tmp_path / "fresh.out.json", tmp_path / "inproc.out.json"
        vir = ("rb-constraints", {"algebra": "vir"}, "--degree", "2", "--out")
        assert fresh(tmp_path, *vir, str(out)) == (0, "", "")
        assert run(tmp_path, *vir, str(inproc)) == 0
        assert out.read_bytes() == inproc.read_bytes()
        rejected = {"algebra": {"basis": ["L"], "products": ["x"]}}
        code, out, err = fresh(tmp_path, "check-axioms", rejected)
        assert (code, out, err) == (run(tmp_path, "check-axioms", rejected), *capsys.readouterr())
        assert code == 2 and "algebra.products" in err

    # registers an exit hook, then ends through the front end's entry point
    EXIT_HOOK = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,"
                 " file=sys.stderr))\n"
                 "from confalg.cli import entry\n"
                 "entry()\n")

    @pytest.mark.parametrize("doc, code", [({"algebra": "hv"}, 0),
                                           ({"algebra": ["L"]}, 2)])
    def test_entry_freezes_the_heap_and_runs_exit_hooks(self, tmp_path, doc, code):
        """``entry`` freezes the heap once ``main`` has returned, and ends
        through a normal exit: exit hooks run and the exit code stands."""
        plain = fresh(tmp_path, "check-axioms", doc)
        hooked = fresh(tmp_path, "check-axioms", doc, code=self.EXIT_HOOK)
        assert hooked == (plain[0], plain[1], plain[2] + "frozen True\n")
        assert plain[0] == code

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
        # unless a bare interpreter loads them too; the command line is read
        # without argparse and the gettext and locale modules it imports
        startup = {"dataclasses", "inspect"} - bare_modules
        parser = {"argparse", "gettext", "locale"} - bare_modules
        assert not self.loaded(tmp_path, "check-axioms", {"algebra": "hv"}) & {
            "operators", "gd", "tensor", "reps", "linmap", "coeff", *startup, *parser}
        assert not self.loaded(tmp_path, "coeff", family1, "--window", "2") & {
            "operators", "gd", "tensor", "reps", *startup, *parser}
        without = {"gd", "coeff", "reps", "tensor", *parser}
        assert not self.loaded(tmp_path, "check-rb", family1) & without
        assert not self.loaded(tmp_path, "rb-constraints", {"algebra": "vir"},
                               "--degree", "2") & without
        system = json.loads((tmp_path / "rb-constraints.out.json").read_text())
        assert not self.loaded(tmp_path, "solve", system) & without
        # the rb mode of induced_lsc builds its table without the representation module
        assert not self.loaded(tmp_path, "catalog", None, "hv_lsc1") & without
