import hashlib
import io
import json
from concurrent.futures.process import BrokenProcessPool

import pytest

from woody.errors import WorkerCrashError
from woody.exact import Budget
from woody.graphs import (
    complete_graph,
    cycle_graph,
    encode_graph6,
    parse_graph6,
)
from woody.harness import (
    MAX_CHUNK,
    HuntConfig,
    chunk_size,
    conjecture_status,
    hunt_graph,
    iter_corpus,
    parse_config_file,
    replay_coloring_number,
    reverify_violation,
    run_hunt,
    summarize,
    write_jsonl,
    write_summary_csv,
)

from conftest import DATA, corpus_lines


def make_task(g6line, config, path="mem.g6", lineno=1):
    return (path, lineno, g6line, config)


DEFAULT = HuntConfig(conjectures=("planar4", "twoarb", "col", "girth-eq"))


class TestConjectureStatus:
    def base_record(self, **kw):
        rec = {"arb": 2, "col": 4, "euler_sanity": True,
               "zeta": 3, "zeta_exact": True}
        rec.update(kw)
        return rec

    def test_holds_violated_unresolved(self):
        assert conjecture_status("planar4", self.base_record()) == "holds"
        assert conjecture_status("twoarb", self.base_record(zeta=5)) == "violated"
        assert conjecture_status("col", self.base_record(zeta=5)) == "violated"
        inexact = self.base_record(zeta=[3, None], zeta_exact=False)
        assert conjecture_status("twoarb", inexact) == "unresolved"
        bounded = self.base_record(zeta=[3, 4], zeta_exact=False)
        assert conjecture_status("planar4", bounded) == "holds"
        assert conjecture_status("twoarb", bounded) == "holds"

    def test_sanity_gate(self):
        rec = self.base_record(euler_sanity=False)
        assert conjecture_status("planar4", rec) == "unresolved"
        assert conjecture_status("twoarb", rec) == "holds"


class TestHuntGraph:
    def test_record_fields_for_c5(self):
        rec = hunt_graph(make_task(encode_graph6(cycle_graph(5)), DEFAULT))
        assert rec["graph_id"] == "mem.g6:1"
        assert (rec["n"], rec["m"], rec["girth"]) == (5, 5, 5)
        assert rec["arb"] == 2 and rec["col"] == 3
        assert rec["zeta"] == 2 and rec["zeta_exact"]
        assert rec["chi_a"] == 3
        assert rec["flags"] == {"planar4": "holds", "twoarb": "holds", "col": "holds"}
        assert rec["zeta_eq_arb"] is True
        assert rec["witness"] is None
        assert "timing_ms" not in rec

    def test_forest_girth_serialized_as_null(self):
        from woody.graphs import star_graph

        rec = hunt_graph(make_task(encode_graph6(star_graph(4)), DEFAULT))
        assert rec["girth"] is None
        assert rec["zeta"] == 1

    def test_an_exhausted_solve_whose_bounds_meet_is_recorded_exact(self):
        # K1,3 on one node: ζ's bounds meet at 1, χ_a's stay [2, 4]
        from woody.graphs import star_graph

        cfg = HuntConfig(budget=Budget(max_nodes=1))
        rec = hunt_graph(make_task(encode_graph6(star_graph(3)), cfg))
        assert rec["zeta"] == 1 and rec["zeta_exact"]
        assert rec["zeta_coloring"] == [0, 0, 0]
        assert rec["chi_a"] is None and rec["budget_exhausted"]

    def test_k5_fails_planar_sanity(self):
        rec = hunt_graph(make_task(encode_graph6(complete_graph(5)), DEFAULT))
        assert not rec["euler_sanity"]
        assert rec["flags"]["planar4"] == "unresolved"
        assert rec["flags"]["twoarb"] == "holds"  # 5 <= 2*3
        assert rec["zeta"] == 5

    def test_parse_error_record(self):
        rec = hunt_graph(make_task("D?\x01", DEFAULT))
        assert "error" in rec

    def test_timings_opt_in(self):
        cfg = HuntConfig(conjectures=("twoarb",), timings=True)
        rec = hunt_graph(make_task(encode_graph6(cycle_graph(4)), cfg))
        assert set(rec["timing_ms"]) >= {"girth", "arb", "col", "chi_a", "zeta"}


class TestReplayAndReverify:
    def test_replay_coloring_number(self):
        g = complete_graph(4)
        assert replay_coloring_number(g, [0, 1, 2, 3]) == 4
        with pytest.raises(ValueError):
            replay_coloring_number(g, [0, 1, 2, 2])

    @staticmethod
    def k5_record():
        # K5 has zeta 5 > 4, so a planar4-style claim re-verifies even
        # though K5 would normally be filtered by the sanity gate.
        # Certificates are edge-indexed, so they must be computed against
        # the graph as parsed from the record's own graph6 string.
        g = parse_graph6(encode_graph6(complete_graph(5)))
        from woody.decompose import arboricity
        from woody.graphs import coloring_number

        k, decomp = arboricity(g)
        col, order = coloring_number(g)
        return {
            "graph6": encode_graph6(g),
            "witness": {
                "conjectures": ["planar4"],
                "zeta_lower": 5,
                "arb_assignment": list(decomp.assignment),
                "num_forests": decomp.num_forests,
                "col_order": list(order),
            },
        }

    def test_reverify_true_violation_style_record(self):
        assert reverify_violation(self.k5_record())

    @pytest.mark.parametrize("field, value", [
        ("graph6", "D~"),  # too short for five vertices
        ("arb_assignment", ["0"] * 10),
        ("arb_assignment", None),
        ("num_forests", "3"),
        ("col_order", [0, 1, 2, 3, 3]),  # not a permutation
        ("col_order", ["a"] * 5),
        ("conjectures", ["planar5"]),
        ("arb_assignment", [0] * 9),  # one entry short
    ])
    def test_reverify_rejects_a_malformed_record(self, field, value):
        record = self.k5_record()
        if field == "graph6":
            record["graph6"] = value
        else:
            record["witness"][field] = value
        assert not reverify_violation(record)

    def test_connected_n7_violations_reverify(self):
        # graphs with m <= 3n - 6 that hold a K5 pass the Euler gate, so
        # planar4 is violated for real; each record's forests come from the
        # degeneracy-seeded arboricity and replay from the record alone
        from woody.graphs import coloring_number

        config = HuntConfig(conjectures=("planar4",))
        records = []
        for lineno, line in enumerate(corpus_lines("connected_n7.g6"), start=1):
            g = parse_graph6(line)
            if g.m <= 15 and coloring_number(g)[0] >= 5:
                records.append(hunt_graph(("connected_n7.g6", lineno, line, config)))
        violated = [r for r in records if r["flags"]["planar4"] == "violated"]
        assert len(violated) >= 20
        for rec in violated:
            assert rec["witness"]["num_forests"] == rec["arb"]
            assert reverify_violation(rec)

    def test_reverify_rejects_false_claim(self):
        g = cycle_graph(5)  # zeta 2, nothing exceeds planar4
        from woody.decompose import arboricity
        from woody.graphs import coloring_number

        k, decomp = arboricity(g)
        col, order = coloring_number(g)
        record = {
            "graph6": encode_graph6(g),
            "witness": {
                "conjectures": ["planar4"],
                "zeta_lower": 5,
                "arb_assignment": list(decomp.assignment),
                "num_forests": decomp.num_forests,
                "col_order": list(order),
            },
        }
        assert not reverify_violation(record)

    def test_reverify_rejects_corrupt_decomposition(self):
        g = cycle_graph(3)
        record = {
            "graph6": encode_graph6(g),
            "witness": {
                "conjectures": ["twoarb"],
                "zeta_lower": 3,
                "arb_assignment": [0, 0, 0],  # cyclic class
                "num_forests": 1,
                "col_order": [0, 1, 2],
            },
        }
        assert not reverify_violation(record)


class TestRunHunt:
    def test_small_corpus_no_violations(self, tmp_path):
        outcome = run_hunt(
            [str(DATA / "planar_connected_n5.g6")],
            HuntConfig(conjectures=("planar4", "twoarb", "col", "girth-eq"),
                       provenance="planar atlas n=5"),
            jobs=1)
        assert outcome.exit_code == 0
        assert len(outcome.records) == 20
        ids = [r["graph_id"] for r in outcome.records]
        assert ids == sorted(ids, key=lambda s: int(s.rsplit(":", 1)[1]))
        assert outcome.summary["violations_total"] == 0
        assert outcome.summary["planar4_holds"] == 20
        assert outcome.summary["provenance"] == "planar atlas n=5"

    def test_arboricity_runs_once_per_hunted_graph(self, monkeypatch):
        # hunt_graph hands its arboricity to the strong arboricity lower
        # bound instead of letting the solver compute it again
        import woody.construct
        import woody.decompose
        import woody.exact
        import woody.harness

        calls = []

        def counted(g, *col):
            calls.append(g)
            return woody.decompose.arboricity(g, *col)

        for module in (woody.harness, woody.exact, woody.construct):
            monkeypatch.setattr(module, "arboricity", counted)
        outcome = run_hunt([str(DATA / "planar_connected_n6.g6")], DEFAULT, jobs=1)
        assert outcome.exit_code == 0
        assert len(outcome.records) == len(calls) == 99

    def test_coloring_number_runs_once_per_hunted_graph(self, monkeypatch):
        # the col column's order also seeds arboricity
        import woody.construct
        import woody.decompose
        import woody.graphs
        import woody.harness

        calls = []

        def counted(g):
            calls.append(g)
            return woody.graphs.coloring_number(g)

        for module in (woody.harness, woody.decompose, woody.construct):
            monkeypatch.setattr(module, "coloring_number", counted)
        outcome = run_hunt([str(DATA / "planar_connected_n6.g6")], DEFAULT, jobs=1)
        assert outcome.exit_code == 0
        assert len(outcome.records) == len(calls) == 99

    def test_clique_number_runs_once_per_hunted_graph(self, monkeypatch):
        # hunt_graph hands one omega to the lower bounds of chi, chi_a and
        # zeta, and the clique search reads the smallest-last order of the
        # col column rather than peeling the graph again
        import woody.construct
        import woody.decompose
        import woody.exact
        import woody.graphs
        import woody.harness

        calls, peels = [], []
        real = woody.exact.max_clique_size

        def counted(g, order=None):
            calls.append(g)
            return real(g, order)

        def peeled(g):
            peels.append(g)
            return woody.graphs.coloring_number(g)

        for module in (woody.harness, woody.exact):
            monkeypatch.setattr(module, "max_clique_size", counted)
        for module in (woody.harness, woody.decompose, woody.construct, woody.exact):
            monkeypatch.setattr(module, "coloring_number", peeled)
        config = HuntConfig(with_chi=True)
        outcome = run_hunt([str(DATA / "planar_connected_n6.g6")], config, jobs=1)
        assert outcome.exit_code == 0
        assert len(outcome.records) == len(calls) == len(peels) == 99
        assert {rec["chi"] for rec in outcome.records} == {2, 3, 4}

    def test_twoarb_holds_on_small_cliques(self, tmp_path):
        f = tmp_path / "cliques.g6"
        f.write_text("".join(
            encode_graph6(complete_graph(n)) + "\n" for n in range(3, 7)))
        outcome = run_hunt([str(f)], HuntConfig(conjectures=("twoarb",)), jobs=1)
        assert outcome.exit_code == 0
        assert [r["zeta"] for r in outcome.records] == [3, 3, 5, 5]
        assert all(r["flags"]["twoarb"] == "holds" for r in outcome.records)

    def test_empty_corpus(self, tmp_path):
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        outcome = run_hunt([str(empty)], DEFAULT, jobs=1)
        assert outcome.exit_code == 0
        assert outcome.records == []

    def test_header_and_blank_lines_tolerated(self, tmp_path):
        f = tmp_path / "c.g6"
        f.write_text(">>graph6<<\n\n" + encode_graph6(cycle_graph(4)) + "\n")
        assert len(iter_corpus([str(f)])) == 1

    def test_parse_failures_skipped_unless_strict(self, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_text(encode_graph6(cycle_graph(4)) + "\nD?\x01\n")
        logged = []
        outcome = run_hunt([str(f)], DEFAULT, jobs=1, log=logged.append)
        assert len(outcome.records) == 1
        assert len(outcome.parse_errors) == 1
        assert logged
        from woody.errors import GraphFormatError

        with pytest.raises(GraphFormatError):
            run_hunt([str(f)],
                     HuntConfig(conjectures=("twoarb",), strict=True), jobs=1)

    def test_violation_halts_with_quarantined_certificate(self, tmp_path, monkeypatch):
        # force a fake bound so the violated plumbing runs end to end
        import woody.harness as H

        real_bound = H.conjecture_bound

        def tiny_bound(name, record):
            if name == "twoarb":
                return 2  # pretend the bound is 2: zeta(K4)=3 violates it
            return real_bound(name, record)

        monkeypatch.setattr(H, "conjecture_bound", tiny_bound)
        monkeypatch.setattr(H, "reverify_violation", lambda rec, budget: True)
        f = tmp_path / "k4.g6"
        f.write_text(encode_graph6(complete_graph(4)) + "\n")
        outcome = run_hunt([str(f)], HuntConfig(conjectures=("twoarb",)), jobs=1)
        assert outcome.exit_code == 10
        assert len(outcome.violations) == 1
        rec = outcome.violations[0]
        assert rec["witness"]["conjectures"] == ["twoarb"]
        # the attached certificates replay against the graph in the record
        g = parse_graph6(rec["graph6"])
        from woody.decompose import ForestDecomposition

        d = ForestDecomposition(g, tuple(rec["witness"]["arb_assignment"]),
                                rec["witness"]["num_forests"])
        assert d.is_valid()
        assert replay_coloring_number(g, rec["witness"]["col_order"]) == rec["col"]

    def test_reverification_runs_under_the_run_budget(self, tmp_path, monkeypatch):
        # a violation found under a non-default budget must be re-verified
        # under that budget, not the default one
        import dataclasses

        import woody.harness as H

        monkeypatch.setattr(H, "conjecture_bound", lambda name, record: 0)
        budgets = []
        real_solve = H.strong_arboricity_exact

        def spy(g, budget=None, arb=None, omega=None):
            budgets.append(budget)
            # an impossible lower bound lets the forced violation re-verify
            return dataclasses.replace(
                real_solve(g, budget, arb=arb, omega=omega), lower=99)

        monkeypatch.setattr(H, "strong_arboricity_exact", spy)
        f = tmp_path / "k4.g6"
        f.write_text(encode_graph6(complete_graph(4)) + "\n")
        config = HuntConfig(conjectures=("twoarb",), budget=Budget(12_345_678, 42.0))
        outcome = run_hunt([str(f)], config, jobs=1)
        assert outcome.exit_code == 10
        # one solve in hunt_graph, one in the re-verification, which keeps
        # the node ceiling and drops the deadline
        assert budgets == [Budget(12_345_678, 42.0), Budget(12_345_678)]
        assert budgets[1].max_seconds is None

    def test_the_default_budget_has_no_deadline(self):
        import woody.harness as H

        assert HuntConfig().budget == Budget(H.DEFAULT_BUDGET_NODES)
        assert HuntConfig().budget.max_seconds is None
        assert not hasattr(H, "DEFAULT_BUDGET_SECONDS")

    def test_a_hunt_that_exhausts_its_node_budget_reads_no_clock(self, tmp_path, monkeypatch):
        # G(16, 0.4) with seed 2 needs 66,375 ζ nodes; a clock that jumps a
        # million seconds at each read would cut any deadline short, and
        # under a node budget it is never read, so the bytes stay the same
        import woody.exact
        import woody.harness as H

        class JumpingClock:
            reads = 0

            @classmethod
            def monotonic(cls):
                cls.reads += 1
                return cls.reads * 1e6

        corpus = tmp_path / "one.g6"
        corpus.write_text("ODkiIbEGyGGI_MA|pHy?r\n")

        def hunt(budget):
            config = HuntConfig(conjectures=H.CONJECTURES, budget=budget, with_chi=True)
            outcome = run_hunt([str(corpus)], config, jobs=1)
            report, summary = io.StringIO(), io.StringIO()
            write_jsonl(outcome.records, report)
            write_summary_csv(outcome.summary, summary)
            return report.getvalue(), summary.getvalue()

        budget = Budget(max_nodes=20_000)
        plain = hunt(budget)
        assert '"budget_exhausted":true' in plain[0] and '"zeta":[4,27]' in plain[0]
        for module in (woody.exact, H):
            monkeypatch.setattr(module, "time", JumpingClock)
        assert hunt(budget) == plain
        assert JumpingClock.reads == 0
        # the stub does stand in for the clock: a deadline reads it, and the
        # first poll, at node 256, finds it passed
        g = parse_graph6("ODkiIbEGyGGI_MA|pHy?r")
        assert woody.exact.strong_arboricity_exact(g, Budget(20_000, 5.0)).nodes == 255
        assert JumpingClock.reads == 2

    def test_violation_halts_at_the_same_record_for_every_jobs_value(self, monkeypatch):
        # workers inherit the patched bound only when forked
        import multiprocessing

        import woody.harness as H

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs forked workers to see the patched bound")
        real_bound = H.conjecture_bound

        def bound(name, record):
            if record["graph_id"].endswith("planar_connected_n7.g6:300"):
                return 0
            return real_bound(name, record)

        monkeypatch.setattr(H, "conjecture_bound", bound)
        monkeypatch.setattr(H, "reverify_violation", lambda rec, budget: True)
        paths = [str(DATA / "planar_connected_n7.g6")]
        # line 300 falls inside a chunk for jobs 2 and 3
        assert 300 % chunk_size(646, 2) and 300 % chunk_size(646, 3)
        outcomes = [run_hunt(paths, HuntConfig(conjectures=("twoarb",)), jobs=jobs)
                    for jobs in (1, 2, 3)]
        assert len(outcomes[0].records) == 300
        assert [v["graph_id"] for v in outcomes[0].violations] == [paths[0] + ":300"]
        for other in outcomes[1:]:
            assert other.records == outcomes[0].records
            assert other.violations == outcomes[0].violations
            assert other.summary == outcomes[0].summary

    def test_jobs_do_not_change_report_bytes(self, monkeypatch):
        config = HuntConfig(conjectures=("planar4", "twoarb", "col", "girth-eq"))
        # relative paths from the repository root keep graph_id and corpus
        # free of where the checkout lives, so the bytes can be pinned
        monkeypatch.chdir(DATA.parent.parent)
        # 99 + 646 + 338 graphs: chunks straddle both file boundaries
        paths = ["tests/data/planar_connected_n6.g6",
                 "tests/data/planar_connected_n7.g6",
                 "tests/data/triangle_free_planar_upto12.g6"]
        blobs = []
        for jobs in (1, 2, 3):
            assert 99 % chunk_size(1083, jobs) and 745 % chunk_size(1083, jobs)
            outcome = run_hunt(paths, config, jobs=jobs)
            buf = io.StringIO()
            write_jsonl(outcome.records, buf)
            csvbuf = io.StringIO()
            write_summary_csv(outcome.summary, csvbuf)
            blobs.append((buf.getvalue(), csvbuf.getvalue()))
        assert len(blobs[0][0].splitlines()) == 1083
        assert blobs[1] == blobs[0]
        assert blobs[2] == blobs[0]
        # Pinned so that a change meant to alter nothing is checked against
        # the commit before it. A change that alters a certificate on
        # purpose re-pins both values, and its CHANGES.md entry says why.
        report, summary = (hashlib.sha256(b.encode()).hexdigest() for b in blobs[0])
        assert report == "ea1a04224662e39f32e3241bed7b705a242377aefde9574d1d4415b25ef373e2"
        assert summary == "b41f07eb72caeebbc8de2b8368db8428c06e0be2402757073a89d15b705207d9"

    def test_worker_crash_names_the_first_graph_without_a_record(
            self, fake_pool, monkeypatch):
        import woody.harness as H

        # the stand-in pool runs in-process, so the break comes at a known record
        corpus = DATA / "planar_connected_n6.g6"
        doomed = corpus.read_text().splitlines()[39]
        real_parse = H.parse_graph6

        def parse(line):
            if line == doomed:
                raise BrokenProcessPool("a worker died")
            return real_parse(line)

        monkeypatch.setattr(H, "parse_graph6", parse)
        with pytest.raises(WorkerCrashError) as info:
            run_hunt([str(corpus)], DEFAULT, jobs=2)
        assert info.value.graph_id == f"{corpus}:40"

    # the budget part of each config; a bad budget fails on construction,
    # before the config or any worker exists
    @pytest.mark.parametrize("config", [
        {"max_seconds": float("nan")}, {"max_seconds": 0.0}, {"max_nodes": 0},
    ])
    def test_bad_budget_fails_before_any_worker(self, fake_pool, monkeypatch, config):
        import woody.harness as H

        def no_graph(task):
            raise AssertionError("a graph was hunted")

        monkeypatch.setattr(H, "hunt_graph", no_graph)
        with pytest.raises(ValueError, match="budget"):
            run_hunt([str(DATA / "planar_connected_n7.g6")],
                     HuntConfig(budget=Budget(**config)), jobs=2)
        assert fake_pool == []

    def test_no_more_workers_than_chunks(self, fake_pool, tmp_path):
        # an empty corpus or a single chunk runs in the calling process
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        assert run_hunt([str(empty)], DEFAULT, jobs=2).records == []
        outcome = run_hunt([str(DATA / "planar_connected_n1.g6")], DEFAULT, jobs=4)
        assert fake_pool == []
        assert len(outcome.records) == 1
        outcome = run_hunt([str(DATA / "planar_connected_n4.g6")], DEFAULT, jobs=8)
        assert [(p.max_workers, p.chunksize) for p in fake_pool] == [(6, 1)]
        assert len(outcome.records) == 6
        run_hunt([str(DATA / "planar_connected_n7.g6")], DEFAULT, jobs=3)
        assert (fake_pool[1].max_workers, fake_pool[1].chunksize) == (3, MAX_CHUNK)


class TestSummary:
    def test_histogram_and_fields(self):
        config = HuntConfig(conjectures=("planar4", "twoarb", "col", "girth-eq"))
        outcome = run_hunt([str(DATA / "planar_connected_n4.g6")], config, jobs=1)
        s = outcome.summary
        assert s["graphs_total"] == 6
        assert s["zeta_exact_count"] == 6
        assert s["max_zeta_exact"] == 3  # K4
        assert s["zeta_eq_4_count"] == 0
        hist_total = sum(v for k, v in s.items() if k.startswith("zeta_minus_arb_"))
        assert hist_total == 6
        assert "girth_eq_threshold" in s

    def test_jsonl_is_valid_json(self):
        outcome = run_hunt([str(DATA / "planar_connected_n3.g6")], DEFAULT, jobs=1)
        buf = io.StringIO()
        write_jsonl(outcome.records, buf)
        for line in buf.getvalue().splitlines():
            json.loads(line)


class TestConfigFile:
    def test_parse(self, tmp_path):
        f = tmp_path / "woody.conf"
        f.write_text("# comment\nbudget_nodes=1000\njobs = 2\n\nstrict=true\n")
        assert parse_config_file(str(f)) == {
            "budget_nodes": "1000", "jobs": "2", "strict": "true"}

    def test_bad_line(self, tmp_path):
        f = tmp_path / "woody.conf"
        f.write_text("nonsense\n")
        with pytest.raises(ValueError):
            parse_config_file(str(f))
