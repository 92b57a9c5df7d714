"""Tests for the multi-tenant service layer (trace, admission, driver, mtc)."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.cli import main
from repro.cluster.cloud import Cloud
from repro.runner import RunConfig, load_all
from repro.runner.select import CellSelector, parse_selectors
from repro.scenarios.overrides import scenario_overrides_for
from repro.scenarios.service import SCENARIO as MTC
from repro.scenarios.service import run_mtc_cell
from repro.service import (
    AdmissionConfig,
    AdmissionQueue,
    ServiceConfig,
    ServiceTrace,
    dumps_trace,
    loads_trace,
    run_service,
    synthesize_trace,
    tenant_name,
)
from repro.service.driver import ServiceDriver
from repro.service.slo import TenantStats, slo_columns
from repro.service.trace import Job
from repro.sim.core import Environment
from repro.util.config import GRAPHENE
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.stats import jain_fairness


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)


#: the character categories ``str.splitlines`` may break a line at
_BREAKS = ("Cc", "Zl", "Zp")


def _loads_or_names(text):
    """Load ``text``; an error that names a trace line must name a non-blank
    physical line of it.  Returns that line number (or ``None``)."""
    try:
        loads_trace(text)
    except ConfigurationError as exc:
        match = re.match(r"trace line (\d+)", str(exc))
        if match is None:
            return None
        number = int(match.group(1))
        physical = text.splitlines()
        assert 1 <= number <= len(physical) and physical[number - 1].strip(), str(exc)
        return number
    return None


class TestTraceModel:
    def test_synthesis_is_deterministic(self):
        a = synthesize_trace(6, 2.0, seed=5)
        b = synthesize_trace(6, 2.0, seed=5)
        assert a == b
        assert synthesize_trace(6, 2.0, seed=6) != a

    def test_every_tenant_deploys_first_and_dies_last(self):
        trace = synthesize_trace(5, 1.0, checkpoints=2, restarts=1)
        for jobs in trace.by_tenant().values():
            assert jobs[0].kind == "deploy"
            assert jobs[-1].kind == "kill"
            kinds = [job.kind for job in jobs]
            assert kinds.count("checkpoint") == 2
            assert kinds.count("restart") == 1

    def test_fixed_mode_arrivals_are_evenly_spaced(self):
        trace = synthesize_trace(4, 2.0, mode="fixed")
        arrivals = [jobs[0].at for jobs in trace.by_tenant().values()]
        assert arrivals == [0.0, 0.5, 1.0, 1.5]

    def test_jsonl_round_trip(self):
        trace = synthesize_trace(4, 1.0, seed=3)
        text = dumps_trace(trace)
        header = json.loads(text.splitlines()[0])
        assert header["schema"] == "blobcr-repro/service-trace"
        assert header["version"] == 1
        assert loads_trace(text) == trace.canonical()

    def test_job_order_on_disk_does_not_matter(self):
        trace = synthesize_trace(4, 1.0, seed=3)
        lines = dumps_trace(trace).splitlines()
        shuffled = "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n"
        assert loads_trace(shuffled) == trace.canonical()

    def test_loader_rejects_malformed_input(self):
        good = dumps_trace(synthesize_trace(2, 1.0))
        lines = good.splitlines()
        with pytest.raises(ConfigurationError, match="empty"):
            loads_trace("")
        with pytest.raises(ConfigurationError, match="schema"):
            loads_trace(good.replace("blobcr-repro/service-trace", "bogus"))
        with pytest.raises(ConfigurationError, match="version"):
            loads_trace(good.replace('"version":1', '"version":2'))
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            loads_trace("\n".join([lines[0], "{nope"]))
        with pytest.raises(ConfigurationError, match="misses key"):
            loads_trace("\n".join([lines[0], '{"tenant":"t0000","seq":0,"kind":"deploy"}']))
        with pytest.raises(ConfigurationError, match="unknown key"):
            loads_trace(
                "\n".join(
                    [lines[0], '{"tenant":"t0000","seq":0,"kind":"deploy","at":0,"x":1}']
                )
            )
        with pytest.raises(ConfigurationError, match="declares"):
            loads_trace("\n".join([lines[0]] + lines[1:-1]))

    def test_an_error_names_the_physical_line(self):
        lines = dumps_trace(synthesize_trace(2, 1.0)).splitlines()
        text = "\n".join([lines[0], "", "  ", "{nope"] + lines[1:])
        with pytest.raises(ConfigurationError, match="trace line 4 is not valid JSON"):
            loads_trace(text)

    def test_an_out_of_range_number_is_malformed_not_an_overflow(self):
        header = dumps_trace(synthesize_trace(1, 1.0)).splitlines()[0]
        for seq, at in (("Infinity", "0"), ("0", "1" + "0" * 400)):
            job = f'{{"tenant":"t0000","seq":{seq},"kind":"deploy","at":{at}}}'
            with pytest.raises(ConfigurationError, match="trace line 2 is malformed"):
                loads_trace(f"{header}\n{job}")

    @settings(max_examples=150, deadline=None)
    @given(text=st.text())
    def test_any_text_loads_or_names_a_line_it_has(self, text):
        _loads_or_names(text)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_a_mutated_trace_loads_or_names_the_mutated_line(self, data):
        lines = dumps_trace(synthesize_trace(2, 1.0, checkpoints=1, restarts=0)).splitlines()
        target = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[target])
        key = data.draw(st.sampled_from(sorted(record)))
        mutation = data.draw(st.sampled_from(("replace", "delete", "raw")))
        if mutation == "replace":
            record[key] = data.draw(_JSON_VALUES)
        elif mutation == "delete":
            del record[key]
        lines[target] = json.dumps(record)
        if mutation == "raw":
            lines[target] = data.draw(st.text(st.characters(blacklist_categories=_BREAKS)))
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(("", " \t"))))
            target += at <= target
        assert _loads_or_names("\n".join(lines)) in (None, target + 1)

    def test_structural_validation(self):
        with pytest.raises(ConfigurationError, match="at least one job"):
            ServiceTrace(jobs=()).validate()
        with pytest.raises(ConfigurationError, match="start with a deploy"):
            ServiceTrace(jobs=(Job("t", 0, "checkpoint", 0.0),)).validate()
        with pytest.raises(ConfigurationError, match="not contiguous"):
            ServiceTrace(
                jobs=(Job("t", 0, "deploy", 0.0), Job("t", 2, "kill", 1.0))
            ).validate()
        with pytest.raises(ConfigurationError, match="deploys twice"):
            ServiceTrace(
                jobs=(Job("t", 0, "deploy", 0.0), Job("t", 1, "deploy", 1.0))
            ).validate()
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            ServiceTrace(
                jobs=(Job("t", 0, "deploy", 5.0), Job("t", 1, "kill", 1.0))
            ).validate()
        with pytest.raises(ConfigurationError, match="unknown job kind"):
            Job("t", 0, "reboot", 0.0).validate()

    def test_tenant_schedule_is_keyed_by_name_not_position(self):
        """A tenant's randomness comes from its name: the same name draws the
        same schedule relative to its arrival regardless of tenant count."""
        small = synthesize_trace(3, 1.0, seed=9).by_tenant()[tenant_name(1)]
        large = synthesize_trace(9, 3.0, seed=9).by_tenant()[tenant_name(1)]
        # same arrival window (tenants/rate = 3s) -> identical jobs
        assert small == large


class TestAdmissionQueue:
    def test_grants_immediately_when_slots_free(self):
        env = Environment()
        queue = AdmissionQueue(env, slots=2)
        ticket = queue.submit("a", "deploy")
        assert ticket.state == "granted"
        assert ticket.wait_s == 0.0

    def test_rejects_synchronously_when_queue_full(self):
        env = Environment()
        queue = AdmissionQueue(env, slots=1, max_queue=1)
        first = queue.submit("a", "deploy")
        queue.submit("b", "deploy")  # queued
        third = queue.submit("c", "deploy")
        assert first.state == "granted"
        assert third.state == "rejected"
        assert queue.rejected == 1

    def test_fifo_grants_in_submission_order(self):
        env = Environment()
        queue = AdmissionQueue(env, slots=1, policy="fifo")
        first = queue.submit("a", "deploy")
        second = queue.submit("b", "deploy")
        third = queue.submit("c", "deploy")
        queue.release(first)
        assert second.state == "granted"
        assert third.state == "queued"

    def test_fair_prefers_the_least_served_tenant(self):
        env = Environment()
        queue = AdmissionQueue(env, slots=1, policy="fair")
        first = queue.submit("a", "deploy")
        queue.release(first)
        second = queue.submit("a", "restart")  # a now has 2 grants
        waiting_a = queue.submit("a", "restart")
        waiting_b = queue.submit("b", "deploy")  # b has none yet
        queue.release(second)
        assert waiting_b.state == "granted"
        assert waiting_a.state == "queued"

    def test_timeout_expires_queued_tickets(self):
        env = Environment()
        queue = AdmissionQueue(env, slots=1, timeout_s=3.0)
        held = queue.submit("a", "deploy")
        waiting = queue.submit("b", "deploy")
        env.run(until=10.0)
        assert waiting.state == "timeout"
        assert queue.timed_out == 1
        queue.release(held)  # nothing left to grant; must not blow up

    def test_validation(self):
        env = Environment()
        with pytest.raises(ConfigurationError, match="policy"):
            AdmissionQueue(env, slots=1, policy="lifo")
        with pytest.raises(ConfigurationError, match=">= 1"):
            AdmissionQueue(env, slots=0)
        with pytest.raises(ConfigurationError, match="policy"):
            AdmissionConfig(policy="random").validate()
        with pytest.raises(ConfigurationError, match="timeout"):
            AdmissionConfig(timeout_s=-1.0).validate()


class TestSloAccounting:
    def test_empty_metrics_keep_the_row_schema(self):
        columns = slo_columns("restart", [])
        assert columns == {"restart_p50": 0.0, "restart_p99": 0.0, "restart_p999": 0.0}
        row = TenantStats(name="t").row()
        assert row["rejection_rate"] == 0.0
        assert row["checkpoint_p50"] == 0.0

    def test_quantiles_are_exact_ranks(self):
        samples = [float(i) for i in range(1, 101)]
        columns = slo_columns("q", samples)
        assert columns["q_p50"] == 50.0
        assert columns["q_p99"] == 99.0
        assert columns["q_p999"] == 100.0

    def test_fairness_is_one_for_identical_tenants(self):
        assert jain_fairness([2.0, 2.0, 2.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


class TestNodeReservations:
    def test_reservations_partition_the_cloud(self):
        cloud = Cloud(GRAPHENE.scaled(compute_nodes=6))
        first = cloud.reserve_nodes(2, owner="a")
        second = cloud.reserve_nodes(2, owner="b")
        assert not set(first) & set(second)
        assert sorted(cloud.reserved_by_others("a")) == sorted(second)
        with pytest.raises(SimulationError, match="only 2 live unreserved"):
            cloud.reserve_nodes(3, owner="c")
        cloud.release_owned("a")
        assert cloud.reserve_nodes(3, owner="c")

    def test_claiming_anothers_node_is_an_error(self):
        cloud = Cloud(GRAPHENE.scaled(compute_nodes=4))
        taken = cloud.reserve_nodes(1, owner="a")
        with pytest.raises(SimulationError, match="already reserved"):
            cloud.claim_nodes(taken, owner="b")
        cloud.claim_nodes(taken, owner="a")  # re-claiming your own is fine


class TestServiceDriver:
    def test_same_run_twice_in_process_is_byte_identical(self):
        trace = synthesize_trace(4, 1.0, seed=2)
        config = ServiceConfig(admission=AdmissionConfig(boot_slots=2))
        first = run_service(trace, config)
        second = run_service(trace, config)
        assert first.aggregate_row() == second.aggregate_row()
        assert first.tenant_rows() == second.tenant_rows()

    def test_job_order_in_trace_does_not_change_the_rows(self):
        trace = synthesize_trace(4, 1.0, seed=2)
        reversed_trace = ServiceTrace(jobs=tuple(reversed(trace.jobs)))
        config = ServiceConfig()
        assert (
            run_service(trace, config).tenant_rows()
            == run_service(reversed_trace, config).tenant_rows()
        )

    def test_rejected_deploys_kill_the_tenant(self):
        trace = synthesize_trace(6, 50.0, mode="fixed")  # all arrive at once
        config = ServiceConfig(admission=AdmissionConfig(boot_slots=1, max_queue=1))
        report = run_service(trace, config)
        aggregate = report.aggregate_row()
        assert aggregate["rejection_rate"] > 0
        rejected = [t for t in report.tenants.values() if t.rejected]
        assert rejected
        assert all(t.skipped > 0 for t in rejected)

    def test_failures_force_rollback_restarts(self):
        trace = synthesize_trace(6, 0.5, checkpoints=3, seed=11)
        report = run_service(trace, ServiceConfig(mtbf_s=8.0))
        assert report.injected_failures > 0
        aggregate = report.aggregate_row()
        assert aggregate["failures"] > 0
        assert aggregate["rollbacks"] > 0

    @staticmethod
    def _serve_one_tenant(kinds, crash_at):
        """Serve one tenant's ``(kind, at)`` jobs; its first host crashes at ``crash_at``.

        The cluster keeps one replica of a chunk, so the crashed node's
        provider takes every chunk it stored with it.
        """
        trace = ServiceTrace(jobs=tuple(Job("t0", seq, *job) for seq, job in enumerate(kinds)))
        driver = ServiceDriver(Cloud(GRAPHENE.scaled(compute_nodes=8)), trace, ServiceConfig())
        driver.injector.fail_at(crash_at, "node-000")  # the tenant's first reserved host
        return driver.run().tenants["t0"]

    def test_a_failure_before_the_first_checkpoint_kills_the_tenant(self):
        stats = self._serve_one_tenant(
            [("deploy", 0.0), ("checkpoint", 100.0), ("restart", 150.0), ("kill", 200.0)],
            crash_at=50.0,
        )
        # no checkpoint to roll back to: killed, the restart and kill are skipped
        assert (stats.failures, stats.rollbacks) == (1, 0)
        assert (stats.completed, stats.skipped) == (1, 2)
        assert stats.checkpoint_latencies == [] and stats.restart_latencies == []

    def test_a_failed_recovery_restart_kills_the_tenant(self):
        stats = self._serve_one_tenant(
            [
                ("deploy", 0.0),
                ("checkpoint", 40.0),
                ("checkpoint", 100.0),
                ("restart", 150.0),
                ("kill", 200.0),
            ],
            crash_at=80.0,
        )
        # the second checkpoint fails, and so does the recovery from the
        # first one: the crashed node held its only replica
        assert (stats.failures, stats.rollbacks) == (2, 1)
        assert (stats.completed, stats.skipped) == (2, 2)
        assert len(stats.checkpoint_latencies) == 1 and stats.restart_latencies == []

    def test_background_flows_slow_the_service_down(self):
        trace = synthesize_trace(3, 1.0, seed=4)
        quiet = run_service(trace, ServiceConfig())
        noisy = run_service(trace, ServiceConfig(background_flows=4))
        assert noisy.background_flows == 4
        assert (
            noisy.aggregate_row()["checkpoint_p50"]
            >= quiet.aggregate_row()["checkpoint_p50"]
        )

    def test_non_blobcr_backends_serve_too(self):
        trace = synthesize_trace(3, 1.0, seed=4)
        report = run_service(trace, ServiceConfig(approach="qcow2-disk-app"))
        assert report.aggregate_row()["completed"] == len(trace.jobs)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="unknown deployment backend"):
            ServiceConfig(approach="tar-app").validate()
        with pytest.raises(ConfigurationError, match=">= 1"):
            ServiceConfig(instances_per_tenant=0).validate()
        with pytest.raises(ConfigurationError, match="MTBF"):
            ServiceConfig(mtbf_s=-1.0).validate()


class TestMtcScenario:
    def test_cell_runs_and_reports_slo_columns(self):
        row = run_mtc_cell(4, 1.0, "fifo")
        for column in (
            "checkpoint_p50",
            "checkpoint_p99",
            "checkpoint_p999",
            "restart_p50",
            "restart_p99",
            "restart_p999",
            "queue_wait_p50",
            "rejection_rate",
            "fairness",
        ):
            assert column in row
        assert row["sim_time_s"] > 0
        assert len(row["tenant_rows"]) == 4

    def test_cell_is_deterministic_in_process(self):
        assert run_mtc_cell(4, 1.0, "fair") == run_mtc_cell(4, 1.0, "fair")

    def test_workers_do_not_change_rows(self):
        session = Session()
        cells = ["mtc:8:1:fifo"]
        serial = session.run_scenario("mtc", cells=cells, workers=1)
        parallel = session.run_scenario("mtc", cells=cells, workers=4)
        assert serial.rows == parallel.rows

    def test_serve_matches_the_scenario_cell(self):
        report = Session().serve(tenants=4, rate=1.0, policy="fifo")
        cell = run_mtc_cell(4, 1.0, "fifo")
        aggregate = dict(report.aggregate)
        aggregate.pop("tenants")
        expected = {
            k: v
            for k, v in cell.items()
            if k not in ("tenants", "rate", "policy", "tenant_rows", "sim_time_s")
        }
        assert aggregate == expected
        assert report.tenant_rows == cell["tenant_rows"]

    def test_serve_accepts_a_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(dumps_trace(synthesize_trace(3, 1.0, seed=8)))
        report = Session().serve(str(path))
        assert report.tenants == 3
        with pytest.raises(ConfigurationError, match="ServiceTrace"):
            Session().serve(42)

    def test_duration_cap_truncates_the_trace(self):
        full = run_mtc_cell(4, 1.0, "fifo")
        capped = run_mtc_cell(4, 1.0, "fifo", duration=5.0)
        assert capped["submitted"] < full["submitted"]
        with pytest.raises(ConfigurationError, match="truncates away every job"):
            run_mtc_cell(4, 1.0, "fifo", duration=1e-9)

    def test_registered_in_canonical_order(self):
        names = load_all()
        assert "mtc" in names and names[-2:] == ["evac", "mig"]
        assert MTC.axis("boot_slots").values == (4,)


class TestScenarioParams:
    def test_param_overrides_are_coerced_and_applied(self):
        axes = scenario_overrides_for(MTC, ["mtc.duration=30", "mtc.tenants=4|6"])
        assert axes == {"duration": (30.0,), "tenants": (4, 6)}

    def test_param_overrides_reject_sweeps_and_unknown_names(self):
        # a parameter is a single-valued axis outside the cell key: a sweep
        # of it would collapse distinct configurations onto one cell key
        with pytest.raises(ConfigurationError, match="duplicate cell keys.*mtc.duration"):
            MTC.enumerate_cells(RunConfig(overrides=("mtc.duration=30|60",)))
        with pytest.raises(ConfigurationError, match="mtc.bogus: .* no axis"):
            scenario_overrides_for(MTC, ["mtc.bogus=1"])
        with pytest.raises(ConfigurationError, match="cannot parse"):
            scenario_overrides_for(MTC, ["mtc.boot_slots=many"])

    def test_params_flow_into_cell_parameters(self):
        cells = MTC.build_cells()
        assert all(cell.params["boot_slots"] == 4 for cell in cells)
        config = RunConfig(overrides=("mtc.boot_slots=2",))
        overridden = MTC.enumerate_cells(config)
        assert all(cell.params["boot_slots"] == 2 for cell in overridden)


class TestCliSurface:
    def test_run_alias_and_wildcard_selectors(self, capsys):
        assert main(["run", "--cells", "mtc:4:*", "--override", "mtc.tenants=4"]) == 0
        out = capsys.readouterr().out
        assert "mtc" in out
        assert "fifo" in out and "fair" in out

    def test_wildcard_matches_parts(self):
        selector = parse_selectors(["mtc:*:1:f*"])[0]
        assert selector == CellSelector(experiment="mtc", parts=("*", "1", "f*"))
        cells = MTC.build_cells()
        matched = [cell.key for cell in cells if selector.matches(cell)]
        assert matched == [
            "mtc:8:1:fifo",
            "mtc:8:1:fair",
            "mtc:100:1:fifo",
            "mtc:100:1:fair",
        ]

    def test_unmatched_wildcard_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--cells", "mtc:777:*"])
