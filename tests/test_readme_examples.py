"""The README's code snippets must actually run — docs that rot are
worse than no docs."""

import repro


class TestQuickstartSnippet:
    def test_verbatim_quickstart(self):
        db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
        session = repro.connect(db)

        query = session.prepare(repro.tpch.query1("1993-01-01", "1994-01-01"))
        result = query.execute()                             # auto: vectorized
        fast = query.execute(backend="vector")               # columnar batches
        oracle = query.execute(strategy="nested-iteration")  # tuple oracle
        assert result == oracle == fast

        assert "block 1" in query.describe()
        assert query.explain(analyze=True).analysis is not None
        traced, trace = query.trace()
        assert traced == result and trace.root is not None
        assert "T1" in repro.TreeExpression(query.query).render()

    def test_every_advertised_strategy_exists(self):
        advertised = [
            "nested-relational",
            "nested-relational-sorted",
            "nested-relational-optimized",
            "nested-relational-bottomup",
            "nested-relational-positive-rewrite",
            "nested-relational-vectorized",
            "nested-relational-parallel",
            "nested-iteration",
            "classical-unnesting",
            "count-rewrite",
            "boolean-aggregate",
            "system-a-native",
            "auto",
        ]
        available = repro.available_strategies()
        for name in advertised:
            assert name in available, name

    def test_verbatim_planner_snippet(self):
        db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
        session = repro.connect(db)
        sql = repro.tpch.query1("1993-01-01", "1994-01-01")

        plan = session.prepare(sql).explain()     # typed repro.Plan
        assert plan.render("text").startswith(f"auto -> {plan.chosen}")
        assert plan.render("json")
        assert plan.chosen == "nested-relational-vectorized"
        assert isinstance(plan.est_rows, float)

    def test_verbatim_options_snippet(self):
        db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
        sql = repro.tpch.query1("1993-01-01", "1994-01-01")

        opts = repro.ExecutionOptions(backend="vector", timeout_ms=5_000)
        session = repro.connect(db, options=opts)
        query = session.prepare(sql)
        result = query.execute(options=opts.replace(logic="2vl"), timeout_ms=500)
        assert result == query.execute()

    def test_top_level_exports(self):
        for name in (
            "NULL", "is_null", "Relation", "Database", "NestedQuery",
            "TreeExpression", "nest", "unnest", "linking_selection",
            "pseudo_selection", "compile_sql", "connect",
            "ExecutionOptions", "Plan",
        ):
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__
