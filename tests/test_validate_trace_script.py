"""``scripts/validate_trace.py`` reads every document shape that holds a
trace: a bare trace, an EXPLAIN ANALYZE JSON document (its ``spans``
key) and a bench artifact.  An EXPLAIN document puts the session's
root span, the one ``PreparedQuery.trace`` opens, under the check."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

import repro

from .core.test_explain import QUERY_Q

SCRIPT = pathlib.Path(__file__).parents[1] / "scripts" / "validate_trace.py"


@pytest.fixture(scope="module")
def validate_trace():
    spec = importlib.util.spec_from_file_location("validate_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def explain_doc(paper_db):
    plan = repro.connect(paper_db).prepare(QUERY_Q).explain(analyze=True)
    return json.loads(plan.render("json"))


def test_explain_document_validates(
    validate_trace, explain_doc, tmp_path, capsys
):
    (root,) = explain_doc["spans"]["spans"]
    assert root["kind"] == "root" and root["name"] == "execute"
    path = tmp_path / "explain.json"
    path.write_text(json.dumps(explain_doc))
    assert validate_trace.main([str(path)]) == 0
    assert "1 trace(s) valid" in capsys.readouterr().out


def test_broken_explain_document_is_refused(
    validate_trace, explain_doc, tmp_path
):
    explain_doc["spans"]["spans"][0]["kind"] = 7
    path = tmp_path / "explain.json"
    path.write_text(json.dumps(explain_doc))
    assert validate_trace.main([str(path)]) == 1
