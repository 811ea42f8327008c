"""Spans around the public functions of each nvholo layer.

The benchmark traces from outside the program: it replaces every module-level
binding of each traced function across nvholo.* with one wrapper, because cli
imports the runners by name and scenarios imports the evolve, gates and core
functions by name. Methods are patched on their class. A traced name that no
longer exists is reported absent instead of failing the run.

A span is [name, start, end, parent index, op id, extra]; spans stay in memory
until the worker writes them out. Self time is a span's duration minus the
durations of its children (calls nest and run on one thread, so children never
overlap). summarize() turns a span list into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time

RUNNERS = (
    "run_single_qubit_theta_sweep",
    "run_single_qubit_detuning_sweep",
    "run_composite_gate_scenario",
    "run_two_qubit_pi2",
    "run_three_qubit_detuning_sweep",
    "run_three_qubit_time_evolution",
    "run_pi3_rotation",
    "run_dark_state_spectrum",
    "compare_resonant_fidelity",
)
# (defining module, attribute path, span name)
TRACED = (
    ("nvholo.evolve", "evolve_schrodinger", "evolve.schrodinger"),
    ("nvholo.evolve", "evolve_lindblad", "evolve.lindblad"),
    ("nvholo.evolve", "recommended_dt", "evolve.recommended_dt"),
    ("nvholo.hamiltonians", "PulsedHamiltonian.sample", "hamiltonians.sample"),
    ("nvholo.hamiltonians", "build_interaction_8", "hamiltonians.build_interaction_8"),
    *(("nvholo.scenarios", name, f"scenarios.{name}") for name in RUNNERS),
    ("nvholo.gates", "phase_from_discrepancy", "gates.phase_from_discrepancy"),
    ("nvholo.gates", "single_qubit_unitary", "gates.single_qubit_unitary"),
    ("nvholo.core", "state_density_fidelity", "core.state_density_fidelity"),
    ("nvholo.core", "eig_hermitian", "core.eig_hermitian"),
    ("nvholo.config", "parse_config", "config.parse_config"),
    ("nvholo.config", "write_csv", "config.write_csv"),
    ("nvholo.config", "RunManifest.to_text", "config.manifest"),
    ("nvholo.cli", "run_cli", "cli.run_cli"),
)
EVOLVE_SPANS = ("evolve.schrodinger", "evolve.lindblad")


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        for attr in ("entries", "amps"):  # OperatorMatrix, DensityMatrix, StateVector
            part = getattr(part, attr, part)
        if hasattr(part, "tobytes"):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _observe_evolve(name, bound, result):
    """Steps as the integrator plans them, records, and the keys that tell
    repeated inputs and repeated (H, dt) transfer maps apart."""
    cfg = bound["cfg"]
    h = bound["h_of_t"]
    state = bound.get("psi0", bound.get("rho0"))
    noise = bound.get("noise")
    return {
        "steps": max(1, int(round((cfg.t_end_us - cfg.t_start_us) / cfg.dt_us))),
        "records": len(result.times),
        "input": _digest(name, h, state, noise, cfg),
        "transfer": _digest(name, h, noise, cfg.dt_us),
    }


def _observe_sample(name, bound, result):
    return {"frames": len(bound["times"])}


def _observe_write_csv(name, bound, result):
    return {"bytes": os.path.getsize(bound["path"])}


OBSERVERS = {
    "evolve.schrodinger": _observe_evolve,
    "evolve.lindblad": _observe_evolve,
    "hamiltonians.sample": _observe_sample,
    "config.write_csv": _observe_write_csv,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op: str | None = None
        self.absent: list[str] = []
        self.observer_errors: list[str] = []
        self._stack: list[int] = []

    def install(self):
        """Patch every binding of the traced functions in loaded nvholo modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nvholo" or n.startswith("nvholo.")]
        for module_name, path, span in TRACED:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, span)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, span):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(span)
        signature = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [span, start, end, parent, self.op, None]
            if observe is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    spans[index][5] = observe(span, bound, result)
                except (TypeError, KeyError, AttributeError, OSError) as exc:
                    self.observer_errors.append(f"{span}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced


def _self_times(spans) -> list[float]:
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            self_time[s[3]] -= s[2] - s[1]
    return self_time


def summarize(spans, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics, counts and seconds per pass, plus per-op evolve and
    sampling counts keyed by op id."""
    self_time = _self_times(spans)
    total, calls, own = {}, {}, {}
    extra_sum: dict = {}
    inputs: dict = {}
    per_op: dict = {}
    for s, own_s in zip(spans, self_time):
        name, start, end, _, op, extra = s
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + own_s
        if not extra:
            continue
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                extra_sum[(name, key)] = extra_sum.get((name, key), 0) + value
        if name in EVOLVE_SPANS:
            counts = per_op.setdefault(op, {})
            keys = inputs.setdefault(op, (set(), set()))
            keys[0].add(extra["input"])
            keys[1].add(extra["transfer"])
            counts["evolve.calls"] = counts.get("evolve.calls", 0) + 1
            counts["evolve.steps"] = counts.get("evolve.steps", 0) + extra["steps"]
        elif name == "hamiltonians.sample":
            counts = per_op.setdefault(op, {})
            counts["hamiltonians.sample.calls"] = counts.get("hamiltonians.sample.calls", 0) + 1
            counts["hamiltonians.sample.frames"] = (
                counts.get("hamiltonians.sample.frames", 0) + extra["frames"]
            )
    for op, (input_keys, transfer_keys) in inputs.items():
        per_op[op]["evolve.distinct_inputs"] = len(input_keys)
        per_op[op]["evolve.distinct_transfers"] = len(transfer_keys)

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def x(name, key):
        return extra_sum.get((name, key), 0)

    evolve_calls = sum(n(s) for s in EVOLVE_SPANS)
    steps = sum(x(s, "steps") for s in EVOLVE_SPANS)
    evolve_s = sum(t(s) for s in EVOLVE_SPANS)
    distinct_inputs = sum(len(k[0]) for k in inputs.values())
    distinct_transfers = sum(len(k[1]) for k in inputs.values())
    raw = {
        "evolve.calls": evolve_calls,
        "evolve.steps": steps,
        "evolve.records": sum(x(s, "records") for s in EVOLVE_SPANS),
        "evolve.s": evolve_s,
        "evolve.self_s": sum(v for k, v in own.items() if k.startswith("evolve.")),
        "evolve.schrodinger.s": t("evolve.schrodinger"),
        "evolve.lindblad.s": t("evolve.lindblad"),
        "evolve.recommended_dt.s": t("evolve.recommended_dt"),
        "hamiltonians.sample.calls": n("hamiltonians.sample"),
        "hamiltonians.sample.frames": x("hamiltonians.sample", "frames"),
        "hamiltonians.sample.s": t("hamiltonians.sample"),
        "hamiltonians.build_interaction_8.s": t("hamiltonians.build_interaction_8"),
        **{f"scenarios.{r}.s": t(f"scenarios.{r}") for r in RUNNERS},
        "scenarios.self_s": sum(v for k, v in own.items() if k.startswith("scenarios.")),
        "gates.phase_from_discrepancy.calls": n("gates.phase_from_discrepancy"),
        "gates.phase_from_discrepancy.s": t("gates.phase_from_discrepancy"),
        "gates.single_qubit_unitary.s": t("gates.single_qubit_unitary"),
        "core.state_density_fidelity.calls": n("core.state_density_fidelity"),
        "core.state_density_fidelity.s": t("core.state_density_fidelity"),
        "core.eig_hermitian.s": t("core.eig_hermitian"),
        "config.parse_config.s": t("config.parse_config"),
        "config.write_csv.s": t("config.write_csv"),
        "config.csv_bytes": x("config.write_csv", "bytes"),
        "config.manifest.s": t("config.manifest"),
        "cli.run_cli.self_s": own.get("cli.run_cli", 0.0),
    }
    scale = 1.0 / max(1, passes)
    metrics = {k: v * scale for k, v in raw.items()}
    # ratios and per-step cost do not scale with the number of passes
    metrics["evolve.us_per_step"] = 1e6 * evolve_s / steps if steps else 0.0
    metrics["evolve.distinct_input_ratio"] = distinct_inputs / evolve_calls if evolve_calls else 0.0
    metrics["evolve.distinct_transfer_ratio"] = (
        distinct_transfers / evolve_calls if evolve_calls else 0.0
    )
    return metrics, per_op
