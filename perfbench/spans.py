"""Spans around the calls into each dronegrid layer, recorded from outside.

`from .x import y` binds a copy of `y` in the importing module, so a call
is intercepted by replacing the name in the module where the caller looks
it up. `Tracer.installed` does that for the duration of one mission and
puts every original back afterwards; nothing under `src/` is touched.

Spans are kept in memory as [name, start, end, parent, note] and turned
into per-layer metrics once the mission has ended.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

# (module that looks the name up, attribute, span name). placement's
# gain_table is hooked too, so channel.gain_table counts every particle's
# table and not only the final one per block.
HOOKS = [
    ("orchestrator", "search_positions", "placement.search_positions"),
    ("orchestrator", "evaluate_particle", "placement.evaluate_particle"),
    ("orchestrator", "solve_allocation", "assign_power.solve_allocation"),
    ("orchestrator", "gain_table", "channel.gain_table"),
    ("orchestrator", "cdbs_battery_step", "energy.battery_step"),
    ("orchestrator", "pd_battery_step", "energy.battery_step"),
    ("placement", "solve_allocation", "assign_power.solve_allocation"),
    ("placement", "gain_table", "channel.gain_table"),
    ("placement", "generate_particles", "placement.generate_particles"),
    ("placement", "shrink_and_realign", "placement.shrink_and_realign"),
    ("assign_power", "assign_binaries", "assign_power.assign_binaries"),
    ("assign_power", "solve_power_given_binaries", "assign_power.solve_power_given_binaries"),
]

RAISED = "raised"


def _note(name, out):
    """What a span keeps of its call's return value."""
    if name == "placement.evaluate_particle":
        return out  # the particle's score; inf when rate-infeasible
    if name == "assign_power.solve_power_given_binaries":
        return out[1].iteration  # SCA rounds of this solve
    return None


class Tracer:
    """Span recorder for one mission."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[4] = RAISED
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[4] = _note(name, out)
        return out

    def records(self) -> list:
        """The spans as JSON-ready dicts, in seconds from the first start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - t0, "end": end - t0, "parent": parent}
                for name, start, end, parent, _ in self.spans]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Route every hooked lookup in `package` through this tracer."""
        saved = []
        try:
            for module_name, attr, span in HOOKS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_metrics(spans: list, blocks: int) -> dict:
    """Per-layer counts and times of one traced mission, as {name: (value, unit)}."""
    total, self_s, notes, durations = {}, {}, {}, {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[i]
        notes.setdefault(name, []).append(note)
        durations.setdefault(name, []).append(dur)

    # a particle displaces the incumbent when it beats every score seen so
    # far in its search; the first evaluation of a search is the incumbent
    accepted = particles = 0
    best = {}
    for name, _, _, parent, note in spans:
        if name != "placement.evaluate_particle":
            continue
        search = parent
        while spans[search][0] != "placement.search_positions":
            search = spans[search][3]
        if search not in best:
            best[search] = note
            continue
        particles += 1
        if note < best[search]:
            best[search] = note
            accepted += 1

    def n(name):
        return len(durations.get(name, ()))

    def s(name):
        return total.get(name, 0.0)

    solve = "assign_power.solve_power_given_binaries"
    rounds = [k for k in notes.get(solve, []) if k != RAISED]
    sca_rounds = sum(rounds)
    evals = notes.get("placement.evaluate_particle", [])
    m = {
        "scenario_io.load_scenario.s": (s("scenario_io.load_scenario"), "s"),
        "scenario_io.emit_traces.s": (s("scenario_io.emit_traces"), "s"),
        "orchestrator.run_simulation.s": (s("orchestrator.run_simulation"), "s"),
        "orchestrator.run_simulation.self_s": (self_s.get("orchestrator.run_simulation", 0.0), "s"),
        "orchestrator.audit_run.s": (s("orchestrator.audit_run"), "s"),
        "orchestrator.blocks": (blocks, "count"),
        "placement.search_positions.calls": (n("placement.search_positions"), "count"),
        "placement.search_positions.self_s": (self_s.get("placement.search_positions", 0.0), "s"),
        "placement.generate_particles.s": (s("placement.generate_particles"), "s"),
        "placement.shrink_and_realign.calls": (n("placement.shrink_and_realign"), "count"),
        "placement.evaluate_particle.calls": (n("placement.evaluate_particle"), "count"),
        "placement.evaluate_particle.s": (s("placement.evaluate_particle"), "s"),
        "placement.evaluate_particle.infeasible": (sum(1 for v in evals if math.isinf(v)), "count"),
        "placement.particles": (particles, "count"),
        "placement.accepted": (accepted, "count"),
        "placement.accept_ratio": (accepted / particles if particles else 0.0, "ratio"),
        "assign_power.solve_allocation.calls": (n("assign_power.solve_allocation"), "count"),
        "assign_power.solve_allocation.s": (s("assign_power.solve_allocation"), "s"),
        "assign_power.assign_binaries.calls": (n("assign_power.assign_binaries"), "count"),
        "assign_power.assign_binaries.self_s": (self_s.get("assign_power.assign_binaries", 0.0), "s"),
        "assign_power.solve_power_given_binaries.calls": (n(solve), "count"),
        "assign_power.solve_power_given_binaries.s": (s(solve), "s"),
        "assign_power.solve_power_given_binaries.p50_ms": (
            1e3 * statistics.median(durations[solve]) if solve in durations else 0.0, "ms"),
        "assign_power.solve_power_given_binaries.infeasible": (n(solve) - len(rounds), "count"),
        "assign_power.sca_rounds": (sca_rounds, "count"),
        "assign_power.sca_rounds_per_solve": (sca_rounds / len(rounds) if rounds else 0.0, "count"),
        "assign_power.round_ms": (1e3 * s(solve) / sca_rounds if sca_rounds else 0.0, "ms"),
        "channel.gain_table.calls": (n("channel.gain_table"), "count"),
        "channel.gain_table.s": (s("channel.gain_table"), "s"),
        "energy.battery_step.calls": (n("energy.battery_step"), "count"),
        "energy.battery_step.s": (s("energy.battery_step"), "s"),
    }
    return m


def identity_errors(m: dict, placement_evals: int) -> list:
    """Counting identities the traced mission must satisfy; returns failures."""
    def v(name):
        return m[name][0]

    checks = [
        ("placement.evaluate_particle.calls == sum of BlockResult.placement_evals",
         v("placement.evaluate_particle.calls"), placement_evals),
        ("assign_power.solve_allocation.calls == placement.evaluate_particle.calls + orchestrator.blocks",
         v("assign_power.solve_allocation.calls"),
         v("placement.evaluate_particle.calls") + v("orchestrator.blocks")),
        ("assign_power.assign_binaries.calls == assign_power.solve_allocation.calls",
         v("assign_power.assign_binaries.calls"), v("assign_power.solve_allocation.calls")),
    ]
    return [f"{text}: {lhs} != {rhs}" for text, lhs, rhs in checks if lhs != rhs]
