"""Fuzzed documents through `cli.main()`: the exit contract is total.

Valid documents (the README example and catalog entries written out by
`entry_to_dict`) get random leaves and sections replaced by a list, a
number, a string, null or an empty object.  Whatever the result, the CLI
exits 0, 1 or 2 and no exception escapes it.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confalg import catalog, cocycle_from_r, dual_rep, rb_constraints, standard_rep
from confalg.catalog import required_params
from confalg.cli import main
from confalg.io_json import entry_to_dict, form_to_dict, rep_to_dict, system_to_dict

COMMANDS = ["check-axioms", "check-rb", "check-rep", "check-cybe", "check-cocycle",
            "cobracket", "gd-check", "solve"]

README_EXAMPLE = {
    "params": ["b"],
    "algebra": {"kind": "lie", "basis": ["L", "W"],
                "products": {"L,L": {"L": "d+2*x"}, "L,W": {"W": "d+x"}, "W,L": {"W": "x"}}},
    "map": {"L": {"L": "-b", "W": "-b"}, "W": {"L": "b", "W": "b"}},
}


def _entry_doc(name: str) -> dict:
    doc = entry_to_dict(catalog(name))
    doc["params"] = list(required_params(name))
    return doc


def _base_documents() -> list[tuple[dict, list[str]]]:
    """Small valid documents, each with the commands it feeds; between them
    they feed every command in COMMANDS."""
    readme = dict(README_EXAMPLE, representation="adjoint",
                  element={"L": "b", "W": "d"}, form={"matrix": {"L,L": "x^3"}, "kind": "lie"},
                  tensor={"entries": [{"i": "L", "j": "W", "c": "d1"}]})
    vir = _entry_doc("vir")
    vir["representation"] = rep_to_dict(dual_rep(standard_rep(catalog("vir").algebra, "adjoint")))
    vir["system"] = system_to_dict(rb_constraints(catalog("vir").algebra, 1)[0])
    skew = catalog("hv_lsc1_skew_r")
    lsc = _entry_doc("hv_lsc1_skew_r")
    lsc["form"] = form_to_dict(cocycle_from_r(skew.algebra, skew.tensor, "lie"))
    lsc["element"] = {"L": "1"}
    gd = dict(_entry_doc("hv_gd"), params=["b"], map=README_EXAMPLE["map"])
    return [(readme, ["check-axioms", "check-rb", "check-rep", "check-cocycle", "cobracket"]),
            (vir, ["check-axioms", "check-rep", "solve"]),
            (lsc, ["check-cybe", "check-cocycle", "cobracket"]),
            (gd, ["gd-check"])]


BASE_DOCUMENTS = _base_documents()

REPLACEMENTS = st.one_of(
    st.lists(st.sampled_from(["L", "W", 1, None]), max_size=2),
    st.integers(-2, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "L", "W", "x", "d+", "L,L", "1/0", "vir", "adjoint"]),
    st.none(),
    st.just({}),
)


def _paths(node, prefix=()):
    """Every path below `node`, as tuples of keys and list indices."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def fuzzed_cases(draw):
    """A command and a document that fed it before 1-3 replacements."""
    base, commands = draw(st.sampled_from(BASE_DOCUMENTS))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for key in parents:
            node = node[key]
        node[last] = draw(REPLACEMENTS)
    return draw(st.sampled_from(commands)), doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.json"


def _run(doc_path, command: str, doc: dict, extra=()) -> tuple[int, str]:
    doc_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--in", str(doc_path), *extra])
    return code, err.getvalue()


def test_base_documents_feed_every_command(doc_path):
    """Unchanged, each base document runs each of its commands to a verdict."""
    assert {c for _, commands in BASE_DOCUMENTS for c in commands} == set(COMMANDS)
    for doc, commands in BASE_DOCUMENTS:
        for command in commands:
            assert _run(doc_path, command, doc)[0] in (0, 1), command


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=fuzzed_cases(), extra=st.sampled_from([[], ["--param", "b=1/3"]]))
def test_exit_code_is_total(doc_path, case, extra):
    command, doc = case
    code, err = _run(doc_path, command, doc, extra)
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in json.loads(err)
