"""The parallel experiment runner.

Fans independent experiment cells out over a process pool and merges the
results back into canonical row order.  Determinism contract:

* cell *results* are independent of worker count, placement and completion
  order (each cell re-seeds from its own identity and builds its own
  simulated cloud), and
* merging happens in canonical enumeration order, so ``--workers N`` produces
  rows identical to ``--workers 1``, which in turn is byte-identical to the
  historical strictly-sequential runner.

Cells that share an execution identity (a view scenario's cell and its
source twin) share one execution, kept in a :class:`CycleStore` until every
scenario reporting it took it: the sharing spans one ``Session``'s calls.

Only wall-clock timings differ between runs -- they are measurements of the
host, not of the simulation.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, TextIO

from repro.runner.cells import Cell, CellResult, execute_cell
from repro.runner.registry import RunConfig, get_scenario, reporters
from repro.runner.select import CellSelector, filter_cells
from repro.scenarios.results import ExperimentResult
from repro.util.errors import ConfigurationError

#: progress callback: (cells done, cells total, result of the finished cell)
ProgressFn = Callable[[int, int, CellResult], None]


class ProgressMeter:
    """A stderr heartbeat for multi-minute runs (the ``--progress`` flag).

    Usable directly as a :data:`ProgressFn`: prints one line per finished
    cell with the done/total count and an ETA extrapolated from the mean
    wall time of the cells completed so far, divided by the worker count
    (cells are independent, so with W workers the remaining cells drain
    roughly W at a time).  Writes to stderr so ``--artifact -`` and other
    stdout consumers stay parseable.
    """

    def __init__(self, workers: int = 1, stream: Optional[TextIO] = None):
        self.workers = max(1, workers)
        self.stream = stream if stream is not None else sys.stderr
        self._wall_times: List[float] = []

    def __call__(self, done: int, total: int, result: CellResult) -> None:
        self._wall_times.append(result.wall_time_s)
        eta = self.eta_s(total - done)
        suffix = f" eta={self._format_eta(eta)}" if done < total else ""
        self.stream.write(
            f"[{done}/{total}] {result.key} "
            f"wall={result.wall_time_s:.2f}s sim={result.sim_time_s:.1f}s{suffix}\n"
        )
        self.stream.flush()

    def eta_s(self, remaining_cells: int) -> float:
        """Estimated seconds until the remaining cells finish."""
        if remaining_cells <= 0 or not self._wall_times:
            return 0.0
        mean_wall = sum(self._wall_times) / len(self._wall_times)
        return mean_wall * remaining_cells / self.workers

    @staticmethod
    def _format_eta(seconds: float) -> str:
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"


@dataclass
class RunReport:
    """Everything one runner invocation produced."""

    results: List[ExperimentResult] = field(default_factory=list)
    #: executed cells, in canonical enumeration order
    cell_results: List[CellResult] = field(default_factory=list)
    experiments: List[str] = field(default_factory=list)
    workers: int = 1
    paper_scale: bool = False
    #: host wall-clock time of the whole cell-execution phase, seconds
    wall_time_s: float = 0.0
    #: configuration the run executed under (overrides, seed, cluster spec)
    config: Optional[RunConfig] = None

    @property
    def total_sim_time_s(self) -> float:
        return sum(r.sim_time_s for r in self.cell_results)


class CycleStore(dict):
    """Execution identity -> (executed result, the :func:`reporters` yet to take
    it); an entry leaves once they all have.  Plain data only, never a cloud."""

    def take(self, key: Hashable, cell: Cell) -> CellResult:
        """``cell``'s record of the cycle; only the first record carries its wall."""
        executed, waiting = self[key]
        waiting.discard(cell.experiment)
        if waiting:
            self[key] = (replace(executed, wall_time_s=0.0), waiting)
        else:
            del self[key]
        return cell.report(executed)


class ParallelRunner:
    """Execute experiment cells, optionally over a worker-process pool."""

    def __init__(self, workers: int = 1, progress: Optional[ProgressFn] = None):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.progress = progress

    def enumerate(
        self,
        experiments: Sequence[str],
        config: Optional[RunConfig] = None,
        selectors: Sequence[CellSelector] = (),
    ) -> List[Cell]:
        """Enumerate (and filter) the cells of the requested experiments."""
        config = config or RunConfig()
        cells: List[Cell] = []
        for name in experiments:
            cells.extend(get_scenario(name).enumerate_cells(config))
        return filter_cells(cells, selectors)

    def run(
        self,
        experiments: Sequence[str],
        config: Optional[RunConfig] = None,
        selectors: Sequence[CellSelector] = (),
        trace: bool = False,
        store: Optional[CycleStore] = None,
    ) -> RunReport:
        """Run the requested experiments and merge their results.

        With ``trace`` every cell runs under the sim-time tracer in whatever
        worker it lands (see :func:`~repro.runner.cells.execute_cell`); the
        fragments come back in canonical cell order like everything else.
        ``store`` carries executed cycles on to later runs (a ``Session``
        passes its own); without it a run shares only within itself.
        """
        config = config or RunConfig()
        specs = [get_scenario(name) for name in experiments]
        cells = self.enumerate(experiments, config, selectors)
        t0 = time.perf_counter()
        cell_results = self._execute(cells, trace, CycleStore() if store is None else store)
        wall = time.perf_counter() - t0
        report = RunReport(
            cell_results=cell_results,
            experiments=list(experiments),
            workers=self.workers,
            paper_scale=config.paper_scale,
            wall_time_s=wall,
            config=config,
        )
        for spec in specs:
            mine = [r for r in cell_results if r.experiment == spec.name]
            report.results.append(spec.merge(mine))
        return report

    def _execute(self, cells: List[Cell], trace: bool, store: CycleStore) -> List[CellResult]:
        """Report every cell, executing each cycle the store does not hold once."""
        reporting: Dict[Hashable, List[int]] = {}
        runs: Dict[Hashable, Cell] = {}
        for index, cell in enumerate(cells):
            cycle = cell.cycle()
            key = (cycle.key, cycle.func, tuple(sorted(cycle.params.items())), trace)
            reporting.setdefault(key, []).append(index)
            if key not in runs and cell.experiment not in store.get(key, (None, ()))[1]:
                runs[key] = cycle
        results: Dict[int, CellResult] = {}

        def report(key: Hashable) -> None:
            for index in reporting[key]:
                results[index] = store.take(key, cells[index])
                if self.progress is not None:
                    self.progress(len(results), len(cells), results[index])

        for key in [key for key in reporting if key not in runs]:
            report(key)
        for key, executed in self._run_cycles(runs, trace):
            store[key] = (executed, reporters(executed.experiment))
            report(key)
        return [results[index] for index in range(len(cells))]

    def _run_cycles(self, runs: Dict[Hashable, Cell], trace: bool) -> Iterator[tuple]:
        if self.workers == 1 or len(runs) <= 1:
            for key, cell in runs.items():
                yield key, execute_cell(cell, trace)
            return
        with ProcessPoolExecutor(max_workers=min(self.workers, len(runs))) as pool:
            pending = {pool.submit(execute_cell, cell, trace): key for key, cell in runs.items()}
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    yield pending.pop(future), future.result()  # re-raises worker failures
