"""Switching-topology run: the bundled reference experiment, in library calls.

Loads the bundled config (two digraphs alternating every 0.1 s, shared
weights H = diag(3, 5, 4)), simulates 2 s, and checks that each stage's
estimation error stays inside a 0.01 band once its prescribed window has
closed (with a 0.05 s settling margin).
"""

from pathlib import Path

import numpy as np

import ptobs
from ptobs.config import load_experiment
from ptobs.trace import write_trace

cfg_path = Path(__file__).resolve().parent.parent / "configs" / "triple_integrator_switching.cfg"
exp = load_experiment(str(cfg_path))

print(f"topologies: {exp.sequence.topology_count}, "
      f"switches: {exp.sequence.switch_times.size}, shared H = {exp.sequence.common_H}")
print(f"gains: alpha={exp.gains.alpha}, beta={exp.gains.beta}, sigma={exp.gains.sigma}")

# The explicit beta in the config is below the worst-case synthesis bound;
# the run still converges (the bound is sufficient, not necessary).
warnings = ptobs.gain_condition_warnings(
    exp.gains, exp.sequence.analyses(), exp.leader.input_bound
)
for msg in warnings:
    print("note:", msg)

result = ptobs.run(
    exp.sequence, exp.leader, exp.gains, exp.sched, exp.initial_estimates, exp.sim
)

print("\nevent log (first 8 entries):")
for t, label in result.event_log[:8]:
    print(f"  t = {t:0.3f}: {label}")

print("\nprescribed-time bands (tolerance 0.01, checked to t_end = 2 s):")
for k, band_start in ((3, 0.25), (2, 0.45), (1, 0.65)):
    sel = result.times >= band_start
    worst = float(np.max(np.abs(result.estimate_errors[sel, :, k - 1])))
    verdict = "inside" if worst <= 0.01 else "OUTSIDE"
    print(f"  stage {k}: max error on [{band_start}, 2.0] = {worst:.2e}  ({verdict})")

print("\ndetected convergence times:", [f"{t:.3f}" for t in result.convergence_times])

out = Path("out/demo04")
out.mkdir(parents=True, exist_ok=True)
write_trace(result, str(out / "trace.csv"))
print(f"trace written to {out}/trace.csv")
