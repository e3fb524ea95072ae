"""End-to-end experiment drivers: ground-state tracking for the driven qubit,
transverse-field annealing over Grover and Ising problem terms with their
runtime sweeps, and the rapidly driven counterpart with its correction gate.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .hamiltonians import (
    GroverProblem,
    TimeDependentHamiltonian,
    annealing_hamiltonian,
    default_transverse_strength,
    fast_counterpart_hamiltonian,
    nmr_hamiltonian,
    rotating_frame_hamiltonian,
)
from .operators import (
    PauliString,
    _block_rows,
    _stack_matmul,
    _unit_state,
    fidelity,
    hermitian_expm,
    minus_state,
    pauli_matrix,
    phase_aligned_distance,
)
from .propagation import (
    TimeGrid,
    UnitaryTrace,
    _check_dims,
    _check_trace_bytes,
    _count,
    _within_step_limit,
    nmr_fast_propagator,
    propagate,
    propagate_each,
    sample_trace,
)
from .schedules import LinearRamp, NmrParams, Schedule
from .transform import (
    _frame_change,
    check_frame_steps,
    compose_transform,
    control_residual,
    nmr_closed_form_transform,
    transform_into_frame,
    two_gate_realization,
    verify_transform,
)

_OVERLAP_FLOOR = 0.25  # squared overlap below which branch tracking counts as lost
# energies closer than this count as one degenerate cluster
_DEGENERACY_TOL = 1e-10
# times at which an annealing run samples the gap above its ground state
_GAP_SAMPLES = 129
# the verify_transform metrics a driven-qubit record keeps, each prefixed transform_
_TRANSFORM_METRICS = ("max_residual", "threshold", "control_max_residual", "model_passed", "max_antihermitian_defect")


def _eigh_blocks(hamiltonian, times: np.ndarray):
    """(first row, energies, states) of the Hamiltonian at ``times``, one
    batched eigendecomposition per block of the shared row budget."""
    rows = _block_rows(hamiltonian.dim)
    for lo in range(0, len(times), rows):
        yield (lo, *np.linalg.eigh(hamiltonian.matrix_stack(times[lo : lo + rows])))


def track_ground_state(
    hamiltonian: TimeDependentHamiltonian,
    *traces: UnitaryTrace,
    psi0: np.ndarray,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Fidelity |<E_0(t)| U(t) psi0>|^2 along the stored nodes, following the
    ground branch from the first node: ``(times, values)``, the node times
    tracked and one array of fidelities per trace.

    The traces must store the same nodes: they share one eigendecomposition
    per node and one followed branch, so tracking several costs one pass.
    The branch is followed by maximal overlap with the previous node's
    eigenvector, so an energy-ordering swap at a crossing does not derail it.
    Within a flagged near-degeneracy the fidelity is the projection onto the
    whole degenerate cluster.  If the overlap drops below the tracking floor,
    tracking stops before that node, so ``times`` ends short of the traces'.
    """
    if not traces:
        raise ValueError("track_ground_state needs at least one trace")
    grid, stride = traces[0].grid, traces[0].stride
    if any((trace.grid, trace.stride) != (grid, stride) for trace in traces[1:]):
        raise ValueError("traces tracked together must store the same nodes")
    dim = hamiltonian.dim
    for trace in traces:
        _check_dims("the Hamiltonian", dim, "a tracked trace", trace.dim)
    psi0 = _unit_state(psi0, (dim,), "initial state")
    times = traces[0].times
    values = [[] for _ in traces]
    b = 0
    # one buffer for the pass: row 0 holds the conjugated eigenvectors at the
    # last node of the previous block, rows 1.. those of the current block
    bras = np.empty((min(_block_rows(dim), len(times)) + 1, dim, dim), dtype=complex)
    for lo, energies, states in _eigh_blocks(hamiltonian, times):
        m = len(states)
        np.conjugate(states, out=bras[1 : m + 1])
        # row i of |V_{k-1}^dag V_k|^2: overlaps of branch i with the next node's eigenvectors
        if lo == 0:
            picks, links = [b], _stack_matmul(bras[1:m].transpose(0, 2, 1), states[1:])
        else:
            picks, links = [], _stack_matmul(bras[:m].transpose(0, 2, 1), states)
        overlaps = np.abs(links) ** 2
        # flat lists, entry k * dim + i for branch i at link k: no list per node
        lost = (np.max(overlaps, axis=2) < _OVERLAP_FLOOR).ravel().tolist()
        best = np.argmax(overlaps, axis=2).ravel().tolist()
        del links, overlaps
        for k in range(0, len(best), dim):
            if lost[k + b]:
                break
            b = best[k + b]
            picks.append(b)
        n = len(picks)
        picked = energies[np.arange(n), np.asarray(picks, dtype=int)]
        cluster = np.abs(energies[:n] - picked[:, None]) < _DEGENERACY_TOL
        for trace, vals in zip(traces, values):
            amps = np.einsum("kij,ki->kj", bras[1 : n + 1], trace.matrices[lo : lo + n] @ psi0)
            vals.append(np.sum(np.abs(amps) ** 2, axis=1, where=cluster))
        if n < m:  # the branch was lost within this block
            break
        bras[0] = bras[m]
        del energies, states  # before the next block is decomposed
    values = tuple(np.concatenate(vals) for vals in values)
    return times[: len(values[0])], values


def expected_min_fidelity(drive_strength: float, detuning: float) -> float:
    """Worst ground-branch fidelity of the rotated-frame drive, from the exact
    two-level solution: 1 - d^2 / (4 g^2 + d^2).

    Where the denominator is not a normal float, g and d are first scaled by
    the power of two that brings the larger of g and |d| into [1/2, 1), which
    leaves the ratio unchanged."""
    g, d = float(drive_strength), float(detuning)
    if not sys.float_info.min <= 4.0 * g * g + d * d <= sys.float_info.max:
        exponent = math.frexp(max(g, abs(d)))[1]
        g, d = math.ldexp(g, -exponent), math.ldexp(d, -exponent)
    return 1.0 - d * d / (4.0 * g * g + d * d)


# ---------------------------------------------------------------------------
# Driven-qubit frame experiment


def _max_node_distance(a: UnitaryTrace, b: UnitaryTrace) -> float:
    return float(np.max(phase_aligned_distance(a.matrices, b.matrices)))


def quarter_turn_time(detuning: float) -> float:
    """pi / (2 |d|), a quarter turn of the frame rotating at the detuning.

    Computed as (pi / 2) / |d|, which no finite detuning overflows; a
    vanishing detuning, or a turn too short to be a normal float, is refused.
    """
    if detuning == 0.0:
        raise ValueError("t_final must be given when the detuning vanishes")
    t_final = 0.5 * math.pi / abs(detuning)
    if not t_final >= sys.float_info.min:
        raise ValueError(
            f"the quarter turn pi/(2|detuning|) is {t_final!r} for detuning {detuning!r}, "
            "too short to divide into steps; give t_final"
        )
    return t_final


def nmr_grid(t_final: float, n_steps: int | None = None) -> TimeGrid:
    """The grid of a driven-qubit frame change on [0, t_final]: ``n_steps``
    steps, by default one per 1e-3 time units and at least 16, refused unless
    a frame change takes them and its control's 2 n_steps + 1 unitaries of
    dimension 2 can be stored."""
    if n_steps is None:
        n_steps = max(16, int(math.ceil(_within_step_limit(t_final / 1e-3))))
    check_frame_steps(n_steps)
    _check_trace_bytes(2 * n_steps + 1, 2, "take fewer steps")
    return TimeGrid(0.0, float(t_final), n_steps)


def anneal_grid(t_final: float, n_steps: int | None = None) -> TimeGrid:
    """The grid of an anneal on [0, t_final]: ``n_steps`` steps, by default
    ceil(200 t_final) and at least 400, refused beyond MAX_STEPS."""
    if n_steps is None:
        n_steps = max(400, int(math.ceil(_within_step_limit(200.0 * t_final))))
    return TimeGrid(0.0, t_final, n_steps)


def run_nmr_experiment(
    qubit_splitting: float, drive_rate: float, drive_strength: float, grid: TimeGrid
) -> tuple[dict, dict]:
    """Drive one qubit fast, watch it evolve slowly in the rotated frame.

    Builds the driven Hamiltonian and its rotated-frame partner, propagates
    both numerically and through the closed forms, composes the frame change
    from the propagators, verifies the frame-change identity with the
    self-calibrated tolerance model, carries the lab Hamiltonian into the
    frame and back out again, tracks the ground branch, and realizes
    the final state as one fast gate plus one correction gate, all on
    ``grid``, as :func:`nmr_grid` builds it.  A quarter turn of the frame
    (:func:`quarter_turn_time`), where the rotated drive points along Y, gives
    the correction gate its simplest form.

    Returns the metrics, keyed as ``result.json`` stores them, and the curves
    ``fidelity`` (ground branch of the closed-form slow trace) and
    ``residuals`` (frame-change identity), each as (times, values).  No trace
    is kept.
    """
    p = NmrParams.harmonic(qubit_splitting, drive_rate, drive_strength)
    detuning = p.detuning
    frame_drive = NmrParams.harmonic(0.0, detuning, drive_strength)  # the rotated frame's own drive
    fast_h = nmr_hamiltonian(p)
    slow_h = rotating_frame_hamiltonian(p)
    psi0 = minus_state(1)

    # Each trace is dropped after its last reader, reduced to its final and
    # its distances, so at most three coarse traces are held at once.  The
    # fine-grid control goes first and is reduced to its largest residual
    # before any coarse trace exists.
    control = control_residual(fast_h, slow_h, compose_transform(*propagate_each((fast_h, slow_h), grid.refined())))
    fast_num, slow_num = propagate_each((fast_h, slow_h), grid)
    composed_num = compose_transform(fast_num, slow_num)
    check, curves = verify_transform(fast_h, slow_h, composed_num, control)
    # the round trip: H carried into the frame, then back out against H
    frame_rec = transform_into_frame(fast_h, composed_num)
    round_trip = float(np.max(_frame_change(frame_rec, composed_num, adjoint=True, target=fast_h)[1]))
    del frame_rec
    slow_final = slow_num.apply(psi0)
    two_composed = fidelity(two_gate_realization(fast_num, composed_num, psi0), slow_final)
    defects = [fast_num.max_defect, slow_num.max_defect, composed_num.max_defect]
    del composed_num

    fast_ana = sample_trace(lambda ts: nmr_fast_propagator(p, ts), grid)
    oracle_fast = _max_node_distance(fast_num, fast_ana)
    fast_state = fast_num.apply(psi0)  # U(T) psi0, for the closed-form two-gate realization
    del fast_num

    slow_ana = sample_trace(lambda ts: nmr_fast_propagator(frame_drive, ts), grid)
    oracle_slow = _max_node_distance(slow_num, slow_ana)
    fidelity_times, (fidelities, fidelities_num) = track_ground_state(slow_h, slow_ana, slow_num, psi0=psi0)
    del slow_num

    composed_ana = compose_transform(fast_ana, slow_ana)
    defects += [fast_ana.max_defect, slow_ana.max_defect, composed_ana.max_defect]
    del fast_ana, slow_ana
    closed = nmr_closed_form_transform(p, grid)
    composed_vs_closed = _max_node_distance(composed_ana, closed)
    # S^dag(T) U(T) psi0 as two_gate_realization forms it, with S the closed form
    two_closed = fidelity(closed.final.conj().T @ fast_state, slow_final)
    defects.append(closed.max_defect)
    del closed

    # correction gate S^dag(T) against the closed-form Z rotation exp(i w0 T Z / 2)
    z = pauli_matrix("Z")
    reference = hermitian_expm(z, -0.5 * qubit_splitting * grid.t_end)
    correction = composed_ana.final.conj().T
    correction_distance = phase_aligned_distance(correction, reference)

    metrics = {
        "detuning": float(detuning),
        "t_final": grid.t_end,
        "n_steps": grid.n_steps,
        "adiabaticity_ratio": drive_strength / abs(detuning) if detuning != 0.0 else math.inf,
        "oracle_distance_fast": oracle_fast,
        "oracle_distance_slow": oracle_slow,
        "composed_vs_closed_form": composed_vs_closed,
        **{f"transform_{key}": check[key] for key in _TRANSFORM_METRICS},
        "round_trip_max_residual": round_trip,
        "min_fidelity": float(np.min(fidelities)),
        "expected_min_fidelity": expected_min_fidelity(drive_strength, detuning),
        "numeric_min_fidelity": float(np.min(fidelities_num)),
        "two_gate_fidelity_composed": two_composed,
        "two_gate_fidelity_closed_form": two_closed,
        "correction_gate_distance": correction_distance,
        "max_unitarity_defect": float(max(defects)),
    }
    return metrics, {"fidelity": (fidelity_times, fidelities), **curves}


# ---------------------------------------------------------------------------
# Annealing runs


def run_annealing_experiment(problem, grid: TimeGrid, transverse0: float | None = None) -> dict:
    """Anneal over ``grid``, on [0, T], from the transverse-field ground state
    into the problem term and report how much of the final state sits in the
    ground manifold.

    Returns the metrics keyed as ``result.json`` stores them: the ground-manifold
    population at the end, the minimal gap, the runtime, the initial state's
    overlap with |->^n, min_gap^2 T, and for a search problem the final
    population of the marked state."""
    if transverse0 is None:
        transverse0 = default_transverse_strength(problem)
    h = annealing_hamiltonian(LinearRamp(transverse0, 0.0, grid.t_end), problem)
    psi0 = np.linalg.eigh(h.matrix(0.0))[1][:, 0]
    trace = propagate(h, grid, stride=max(1, grid.n_steps // 256))
    overlap0 = fidelity(psi0, minus_state(problem.n_qubits))
    psi_final = trace.apply(psi0)

    energies, states = np.linalg.eigh(h.matrix(grid.t_end))
    cluster = np.abs(energies - energies[0]) < _DEGENERACY_TOL
    amp = states[:, cluster].conj().T @ psi_final
    success = float(np.sum(np.abs(amp) ** 2))

    # eigh, not eigvalsh: the gaps keep the bits of np.linalg.eigh at each time
    ts = np.linspace(0.0, grid.t_end, _GAP_SAMPLES)
    min_gap = min(
        (float(np.min(e[:, 1] - e[:, 0])) for _, e, _ in _eigh_blocks(h, ts)), default=math.inf
    )

    metrics = {
        "success_probability": success,
        "min_gap": float(min_gap),
        "runtime_t": float(grid.t_end),
        "initial_minus_overlap": overlap0,
        "adiabaticity_ratio": min_gap * min_gap * grid.t_end,
    }
    if isinstance(problem, GroverProblem):
        metrics["final_fidelity_vs_marked"] = float(np.abs(psi_final[problem.marked]) ** 2)
    return metrics


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else ``os.cpu_count()`` (None when unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _sweep_workers(jobs: int, n_points: int, n_cpus: int | None) -> int:
    """Pool size for a sweep: ``jobs`` clamped to the point and CPU counts
    (``n_cpus`` is ``_usable_cpus()``, None when unknown)."""
    return min(_count(jobs, "jobs"), n_points, n_cpus or 1)


def sweep_runtimes(t_initial: float, doublings: int) -> list:
    """The runtimes t_initial * 2^k, k = 0..doublings, of a doubling sweep.

    The grids of the shortest, which has the smallest step, and of the
    longest, whose runtime is computed without overflow, are built first, so
    a sweep that cannot run is refused before any runtime is built.
    """
    anneal_grid(t_initial)
    doublings = _count(doublings, "doublings", floor=0)
    try:
        longest = math.ldexp(t_initial, doublings)
    except OverflowError:
        longest = math.inf
    anneal_grid(longest)
    return [t_initial * 2.0**k for k in range(doublings + 1)]


def annealing_doubling_sweep(
    problem,
    t_initial: float,
    doublings: int,
    transverse0: float | None = None,
    jobs: int = 1,
) -> tuple:
    """The metrics of annealing runs at runtimes t_initial * 2^k for
    k = 0..doublings, each with the default step count of
    :func:`anneal_grid`.

    All points are always computed (no early stopping) so the result does not
    depend on sharding; ``jobs`` > 1 distributes points across threads.
    """
    runtimes = sweep_runtimes(t_initial, doublings)
    workers = _sweep_workers(jobs, len(runtimes), _usable_cpus())

    def point(t_final):
        return run_annealing_experiment(problem, anneal_grid(t_final), transverse0)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; only a pool needs it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return tuple(pool.map(point, runtimes))
    return tuple(map(point, runtimes))


# ---------------------------------------------------------------------------
# Fast counterpart of an annealing run


def check_counterpart_phase(phase: Schedule, t_final: float) -> None:
    """Refuse a frame phase that does not vanish at t=0 to within 1e-12, so
    the two evolutions would not start in the same frame, or that is not
    defined up to ``t_final`` or not finite there, nor twice it, the angle of
    the conjugated problem terms."""
    if not abs(float(phase.value(0.0))) <= 1e-12:  # NaN fails it too
        raise ValueError("frame phase must vanish at t=0")
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        end = float(phase.value(t_final))  # a schedule refuses a time outside its domain
    if not math.isfinite(end):
        raise ValueError(f"frame phase is {end} at t={t_final!r}, past the float range")
    if not math.isfinite(2.0 * end):
        raise ValueError(
            f"frame phase is {end!r} at t={t_final!r}; twice it, the angle of the conjugated "
            "problem terms, is past the float range"
        )


def run_fast_counterpart_comparison(
    problem, phase: Schedule, grid: TimeGrid, transverse0: float | None = None
) -> dict:
    """Evolve under the rapidly driven counterpart over ``grid``, on [0, T],
    undo the frame with the single correction gate exp(i phase(T) sum_i X_i),
    and compare against the plain slow annealing evolution of the same
    initial state.

    Returns the ``counterpart_*`` metrics keyed as ``result.json`` stores them:
    the corrected fast state's fidelity with the slow one, the two-gate
    fidelity, the composed frame change's distance from the X rotations, and
    the largest unitarity defect.

    The frame phase is checked by :func:`check_counterpart_phase`.
    """
    check_counterpart_phase(phase, grid.t_end)
    if transverse0 is None:
        transverse0 = default_transverse_strength(problem)
    n = problem.n_qubits
    ramp = LinearRamp(transverse0, 0.0, grid.t_end)
    slow_h = annealing_hamiltonian(ramp, problem)
    fast_h = fast_counterpart_hamiltonian(ramp, problem, phase)

    psi0 = np.linalg.eigh(slow_h.matrix(0.0))[1][:, 0]
    slow_trace, fast_trace = propagate_each((slow_h, fast_h), grid, stride=max(1, grid.n_steps // 200))

    psi_slow = slow_trace.apply(psi0)
    psi_fast = fast_trace.apply(psi0)
    final_phase = float(phase.value(grid.t_end))
    sum_x = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        sum_x += PauliString(((i, "X"),)).matrix(n)
    correction = hermitian_expm(sum_x, -final_phase)
    equivalence = fidelity(correction @ psi_fast, psi_slow)

    composed = compose_transform(fast_trace, slow_trace)
    two_gate = fidelity(
        two_gate_realization(fast_trace, composed, psi0), psi_slow
    )
    frames = hermitian_expm(sum_x, phase.value(composed.times))
    transform_distance = float(np.max(phase_aligned_distance(composed.matrices, frames)))
    return {
        "counterpart_fidelity": equivalence,
        "counterpart_two_gate_fidelity": two_gate,
        "counterpart_transform_distance": transform_distance,
        "counterpart_max_unitarity_defect": float(
            max(slow_trace.max_defect, fast_trace.max_defect, composed.max_defect)
        ),
    }
