"""The config-driven CLI pipeline: analyze -> synthesize -> run -> report.

Drives the four subcommands in-process against the bundled config with a
shortened horizon, leaving a trace CSV and per-stage SVG plots in out/demo05.
"""

from pathlib import Path

from ptobs.cli import main

cfg = str(Path(__file__).resolve().parent.parent / "configs" / "triple_integrator_switching.cfg")
out = "out/demo05"

print("== ptobs analyze ==")
code = main(["analyze", "--config", cfg])
print(f"(exit {code})\n")

print("== ptobs synthesize ==")
Path(out).mkdir(parents=True, exist_ok=True)
code = main(["synthesize", "--config", cfg,
             "--set", "gains.mode=synthesize", "--set", "gains.alpha_margin=1.05",
             "--emit-config", f"{out}/synthesized.cfg"])
print(f"(exit {code})\n")

print("== ptobs run (shortened to 0.8 s) ==")
code = main(["run", "--config", cfg, "--out", out, "--set", "sim.t_end=0.8"])
print(f"(exit {code})\n")

print("== ptobs report ==")
code = main(["report", "--config", cfg, "--out", out, f"{out}/trace.csv"])
print(f"(exit {code})\n")

print(f"artifacts in {out}:")
for p in sorted(Path(out).iterdir()):
    print(f"  {p.name}  ({p.stat().st_size} bytes)")
