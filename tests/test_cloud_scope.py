"""Two simulated clouds alive in one cell keep their instrumentation apart.

A cell may build several clouds (one per approach under test) and a
``Session`` keeps its cloud alive beside any other.  Each cloud's spans must
land in that cloud's own trace group, and the cell's counters must be the
fold of what each cloud counts on its own, however their events interleave.
"""

from repro.cluster.cloud import Cloud
from repro.runner.cells import Cell, execute_cell
from repro.sim.instrumentation import aggregate_counters
from repro.util.config import GRAPHENE
from repro.util.units import MB

SPECS = {
    "a": GRAPHENE.scaled(compute_nodes=6, service_nodes=3),
    "b": GRAPHENE.scaled(compute_nodes=4, service_nodes=2),
}
#: what each cloud's one process moves, so the two clouds count differently
BYTES = {"a": (2 * MB, 1 * MB), "b": (3 * MB,)}


def _start_work(cloud, name):
    src, dst = cloud.compute_nodes[0].name, cloud.compute_nodes[1].name

    def body():
        for nbytes in BYTES[name]:
            yield cloud.remote_write(src, dst, nbytes)

    return cloud.process(body(), name=f"work:{name}")


def _one_cloud(name):
    cloud = Cloud(SPECS[name])
    _start_work(cloud, name)
    cloud.run()
    return {"sim_time_s": cloud.now}


def _interleaved_clouds():
    """Build both clouds first, then start and step them in turn."""
    built = {name: Cloud(spec) for name, spec in SPECS.items()}
    for name, cloud in built.items():
        _start_work(cloud, name)
    envs = [cloud.env for cloud in built.values()]
    while any(env._queue for env in envs):
        for env in envs:
            if env._queue:
                env.step()
    for env in envs:
        env.run()  # the end-of-instant flush of the last instant
    return {"sim_time_s": max(env.now for env in envs)}


def _run(func, **params):
    return execute_cell(Cell("test", (func.__name__,), func, params), trace=True)


class TestInterleavedClouds:
    def test_the_cells_counters_fold_what_each_cloud_counts_alone(self):
        alone = [_run(_one_cloud, name=name).counters for name in SPECS]
        assert alone[0] != alone[1]
        together = _run(_interleaved_clouds).counters
        assert together == aggregate_counters(alone)

    def test_each_clouds_spans_carry_its_own_group(self):
        trace = _run(_interleaved_clouds).trace
        assert trace["groups"] == ["run", "cloud[6+3 nodes]", "cloud[4+2 nodes]"]
        work = {span["track"]: span["group"] for span in trace["spans"] if span["name"] == "work"}
        assert work == {"a": 1, "b": 2}
